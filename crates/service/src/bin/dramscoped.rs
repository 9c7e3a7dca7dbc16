//! `dramscoped` — the characterization daemon: JSON-lines requests on
//! stdin/stdout or a unix socket. `dramscoped --help` lists its flags,
//! which [`ServeConfig`] declares for it and `characterize serve` alike.

use dramscope_service::{cli, ServeConfig};
use std::process::ExitCode;

const DRAMSCOPED: cli::Command = ServeConfig::command("dramscoped");

fn main() -> ExitCode {
    cli::main(&DRAMSCOPED)
}
