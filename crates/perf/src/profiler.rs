//! Hierarchical wall-clock profiling over phase/span markers.
//!
//! The simulator's probe pipelines already announce their structure as
//! out-of-band markers — `phase:<name>` for the flat characterization
//! phases and `span:<name>:enter` / `span:<name>:exit` for nested scopes
//! (see [`dram_telemetry::parse_marker`]). The deterministic telemetry
//! layer folds those into flat per-name *simulated-time* totals; this
//! module folds the same stream, annotated with host-clock timestamps,
//! into a **tree**: who called whom, how often, and where the host time
//! actually went.
//!
//! A [`Profiler`] consumes `(marker, wall_ns, sim_ps, commands)` tuples
//! and yields a [`SpanTree`] whose nodes carry call counts, total and
//! self wall time, simulated-time and command deltas, and the derived
//! throughput figures (commands/sec, simulated nanoseconds per host
//! microsecond). Output comes in three shapes: an indented text tree, a
//! nested JSON document, and collapsed-stack lines ready for
//! `flamegraph.pl`.
//!
//! Determinism contract: the *structure* of the tree — node names,
//! ordering, call counts, command and simulated-time totals — is a pure
//! function of the (deterministic) marker stream, so it is byte-stable
//! across runs; only the wall-clock fields vary. The structure-only
//! rendering is exposed as [`SpanTree::structure_signature`] and is what
//! regression tests pin.
//!
//! Robustness contract (the `TraceError` discipline, applied to
//! markers): no input stream panics the profiler. Exits without a
//! matching enter are counted and dropped; enters without an exit are
//! closed at [`Profiler::finish`]; an exit that skips over open inner
//! spans closes those inner spans at the same instant.

use dram_telemetry::{json, parse_marker, MarkerKind};

/// Name given to the synthetic root node covering the whole run.
pub const ROOT_NAME: &str = "run";

/// One node of a finished [`SpanTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Phase (`phase:<name>`) or span name.
    pub name: String,
    /// Times this node was entered.
    pub calls: u64,
    /// Total wall-clock time spent below this node, nanoseconds.
    pub wall_ns: u64,
    /// Simulated time covered while this node was open, picoseconds.
    pub sim_ps: u64,
    /// Accepted pin-level commands issued while this node was open.
    pub commands: u64,
    /// Child nodes, in first-entered order (deterministic for a
    /// deterministic marker stream).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            calls: 0,
            wall_ns: 0,
            sim_ps: 0,
            commands: 0,
            children: Vec::new(),
        }
    }

    /// Wall time attributable to this node alone: total minus children.
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.wall_ns).sum();
        self.wall_ns.saturating_sub(children)
    }

    /// Commands per host second over this node's total wall time.
    pub fn commands_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.commands as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Simulated nanoseconds advanced per host microsecond spent — the
    /// "how much faster than real time does the simulator run" figure.
    pub fn sim_ns_per_host_us(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.sim_ps as f64 / 1e3) / (self.wall_ns as f64 / 1e3)
    }
}

/// An open frame: the tree node it accumulates into plus the clock
/// readings at entry.
#[derive(Debug, Clone)]
struct Frame {
    /// Index path from the root to the node (child indices level by
    /// level), stable because nodes are never removed while building.
    path: Vec<usize>,
    name: String,
    /// Phases sit directly under the root and are switched, not nested.
    is_phase: bool,
    start_wall_ns: u64,
    start_sim_ps: u64,
    start_commands: u64,
}

/// Builds a [`SpanTree`] from a marker stream. See the [module
/// docs](self) for the determinism and robustness contracts.
#[derive(Debug, Clone)]
pub struct Profiler {
    root: SpanNode,
    stack: Vec<Frame>,
    unmatched_exits: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates a profiler with an open root frame starting at zero.
    pub fn new() -> Profiler {
        let mut root = SpanNode::new(ROOT_NAME);
        root.calls = 1;
        Profiler {
            root,
            stack: Vec::new(),
            unmatched_exits: 0,
        }
    }

    fn node_mut(&mut self, path: &[usize]) -> &mut SpanNode {
        let mut node = &mut self.root;
        for &i in path {
            node = &mut node.children[i];
        }
        node
    }

    /// Opens a frame named `name` under the current innermost frame.
    pub fn enter(&mut self, name: &str, wall_ns: u64, sim_ps: u64, commands: u64) {
        self.open(name, false, wall_ns, sim_ps, commands);
    }

    /// Switches to phase `name`: closes every open frame (phases are
    /// flat and live directly under the root) and opens `phase:<name>`.
    pub fn phase(&mut self, name: &str, wall_ns: u64, sim_ps: u64, commands: u64) {
        while !self.stack.is_empty() {
            self.close_top(wall_ns, sim_ps, commands);
        }
        self.open(&format!("phase:{name}"), true, wall_ns, sim_ps, commands);
    }

    fn open(&mut self, name: &str, is_phase: bool, wall_ns: u64, sim_ps: u64, commands: u64) {
        let parent_path = self
            .stack
            .last()
            .map(|f| f.path.clone())
            .unwrap_or_default();
        let parent = self.node_mut(&parent_path);
        let child = match parent.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                parent.children.push(SpanNode::new(name));
                parent.children.len() - 1
            }
        };
        parent.children[child].calls += 1;
        let mut path = parent_path;
        path.push(child);
        self.stack.push(Frame {
            path,
            name: name.to_string(),
            is_phase,
            start_wall_ns: wall_ns,
            start_sim_ps: sim_ps,
            start_commands: commands,
        });
    }

    fn close_top(&mut self, wall_ns: u64, sim_ps: u64, commands: u64) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let node = self.node_mut(&frame.path);
        node.wall_ns += wall_ns.saturating_sub(frame.start_wall_ns);
        node.sim_ps += sim_ps.saturating_sub(frame.start_sim_ps);
        node.commands += commands.saturating_sub(frame.start_commands);
    }

    /// Closes the innermost open span named `name`, closing any frames
    /// nested inside it at the same instant. Phases are skipped (only a
    /// phase switch or `finish` ends a phase). An exit with no matching
    /// open span is counted in `unmatched_exits` and otherwise ignored.
    pub fn exit(&mut self, name: &str, wall_ns: u64, sim_ps: u64, commands: u64) {
        let target = self
            .stack
            .iter()
            .rposition(|f| !f.is_phase && f.name == name);
        let Some(target) = target else {
            self.unmatched_exits += 1;
            return;
        };
        while self.stack.len() > target {
            self.close_top(wall_ns, sim_ps, commands);
        }
    }

    /// Routes a marker label through [`parse_marker`]: phases switch,
    /// spans enter/exit, free-form markers are ignored.
    pub fn observe_marker(&mut self, label: &str, wall_ns: u64, sim_ps: u64, commands: u64) {
        match parse_marker(label) {
            Some(MarkerKind::Phase(name)) => self.phase(name, wall_ns, sim_ps, commands),
            Some(MarkerKind::SpanEnter(name)) => self.enter(name, wall_ns, sim_ps, commands),
            Some(MarkerKind::SpanExit(name)) => self.exit(name, wall_ns, sim_ps, commands),
            None => {}
        }
    }

    /// Exits observed with no matching open span so far.
    pub fn unmatched_exits(&self) -> u64 {
        self.unmatched_exits
    }

    /// Closes every open frame and the root at the given final clock
    /// readings and returns the finished tree.
    pub fn finish(mut self, wall_ns: u64, sim_ps: u64, commands: u64) -> SpanTree {
        while !self.stack.is_empty() {
            self.close_top(wall_ns, sim_ps, commands);
        }
        self.root.wall_ns = wall_ns;
        self.root.sim_ps = sim_ps;
        self.root.commands = commands;
        SpanTree {
            root: self.root,
            unmatched_exits: self.unmatched_exits,
        }
    }
}

/// A finished profile: the span tree plus stream-hygiene counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The synthetic root covering the whole run; real phases/spans are
    /// its descendants.
    pub root: SpanNode,
    /// Span exits that never matched an open span.
    pub unmatched_exits: u64,
}

impl SpanTree {
    /// Renders the tree as indented text: per node, total and self wall
    /// time, call count, commands, and the derived rates.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "span tree (wall total / self · calls · commands · cmds/s · sim-ns/host-µs)\n",
        );
        render_text(&self.root, 0, &mut out);
        if self.unmatched_exits > 0 {
            out.push_str(&format!(
                "({} unmatched span exit(s) ignored)\n",
                self.unmatched_exits
            ));
        }
        out
    }

    /// Renders the tree as one nested JSON document (deterministic field
    /// order; wall-dependent fields are the only ones that vary between
    /// identical runs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"dramscope.perf.spans\",\"version\":1,");
        out.push_str(&format!(
            "\"unmatched_exits\":{},\"root\":",
            self.unmatched_exits
        ));
        render_json(&self.root, &mut out);
        out.push('}');
        out
    }

    /// Renders collapsed-stack lines (`a;b;c <self_ns>`), the input
    /// format of `flamegraph.pl` and compatible viewers. Values are
    /// self-time nanoseconds; zero-self nodes are skipped.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        let mut stack = Vec::new();
        render_collapsed(&self.root, &mut stack, &mut out);
        out
    }

    /// The structure-only rendering: names, nesting, ordering, call
    /// counts, commands, and simulated time — everything that must be
    /// byte-stable across identical runs. Wall-clock fields are omitted.
    pub fn structure_signature(&self) -> String {
        let mut out = String::new();
        render_structure(&self.root, 0, &mut out);
        out.push_str(&format!("unmatched_exits={}\n", self.unmatched_exits));
        out
    }
}

fn render_text(node: &SpanNode, depth: usize, out: &mut String) {
    let ms = |ns: u64| ns as f64 / 1e6;
    out.push_str(&format!(
        "{:indent$}{:<24} {:>9.3} ms / {:>9.3} ms · {:>5} · {:>10} · {:>12.0} · {:>8.1}\n",
        "",
        node.name,
        ms(node.wall_ns),
        ms(node.self_ns()),
        node.calls,
        node.commands,
        node.commands_per_sec(),
        node.sim_ns_per_host_us(),
        indent = depth * 2,
    ));
    for child in &node.children {
        render_text(child, depth + 1, out);
    }
}

fn render_json(node: &SpanNode, out: &mut String) {
    out.push_str(&format!(
        "{{\"name\":{},\"calls\":{},\"wall_ns\":{},\"self_ns\":{},\
         \"sim_ps\":{},\"commands\":{},\"children\":[",
        json::string(&node.name),
        node.calls,
        node.wall_ns,
        node.self_ns(),
        node.sim_ps,
        node.commands,
    ));
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_json(child, out);
    }
    out.push_str("]}");
}

fn render_collapsed(node: &SpanNode, stack: &mut Vec<String>, out: &mut String) {
    // Frame names in collapsed format must not contain ';' or whitespace.
    let frame: String = node
        .name
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect();
    stack.push(frame);
    let self_ns = node.self_ns();
    if self_ns > 0 {
        out.push_str(&stack.join(";"));
        out.push_str(&format!(" {self_ns}\n"));
    }
    for child in &node.children {
        render_collapsed(child, stack, out);
    }
    stack.pop();
}

fn render_structure(node: &SpanNode, depth: usize, out: &mut String) {
    out.push_str(&format!(
        "{:indent$}{} calls={} commands={} sim_ps={}\n",
        "",
        node.name,
        node.calls,
        node.commands,
        node.sim_ps,
        indent = depth * 2,
    ));
    for child in &node.children {
        render_structure(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a profiler from a compact script: `(label, wall_ns)`
    /// pairs; sim time advances 10 ps and commands 1 per step.
    fn run_script(steps: &[(&str, u64)]) -> SpanTree {
        let mut p = Profiler::new();
        for (i, (label, wall)) in steps.iter().enumerate() {
            let i = i as u64 + 1;
            p.observe_marker(label, *wall, i * 10, i);
        }
        let end = steps.len() as u64;
        p.finish(
            steps.last().map_or(0, |s| s.1) + 100,
            end * 10 + 10,
            end + 1,
        )
    }

    #[test]
    fn nested_spans_build_a_tree_with_self_time() {
        let t = run_script(&[
            ("span:outer:enter", 0),
            ("span:inner:enter", 100),
            ("span:inner:exit", 300),
            ("span:inner:enter", 400),
            ("span:inner:exit", 450),
            ("span:outer:exit", 1_000),
        ]);
        assert_eq!(t.unmatched_exits, 0);
        assert_eq!(t.root.children.len(), 1);
        let outer = &t.root.children[0];
        assert_eq!(
            (outer.name.as_str(), outer.calls, outer.wall_ns),
            ("outer", 1, 1_000)
        );
        let inner = &outer.children[0];
        assert_eq!(
            (inner.name.as_str(), inner.calls, inner.wall_ns),
            ("inner", 2, 250)
        );
        assert_eq!(outer.self_ns(), 750);
        // outer covers steps 1..6: commands 6 - 1 = 5, sim 60 - 10 = 50.
        assert_eq!((outer.commands, outer.sim_ps), (5, 50));
    }

    #[test]
    fn phases_are_flat_under_the_root_and_close_loose_spans() {
        let t = run_script(&[
            ("phase:structure", 0),
            ("span:probe:enter", 10),
            // Phase switch with `probe` still open: probe closes here.
            ("phase:power", 500),
            ("phase:structure", 900),
        ]);
        let names: Vec<&str> = t.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["phase:structure", "phase:power"]);
        let structure = &t.root.children[0];
        // Re-entering a phase accumulates into the same node.
        assert_eq!(structure.calls, 2);
        assert_eq!(structure.children[0].name, "probe");
        assert_eq!(structure.children[0].wall_ns, 490);
    }

    #[test]
    fn unmatched_exits_are_counted_not_fatal() {
        let t = run_script(&[
            ("span:a:exit", 10),
            ("span:b:enter", 20),
            ("span:b:exit", 30),
            ("span:b:exit", 40),
        ]);
        assert_eq!(t.unmatched_exits, 2);
        assert_eq!(t.root.children.len(), 1);
        assert!(t.to_text().contains("2 unmatched span exit(s)"));
    }

    #[test]
    fn interleaved_exits_close_inner_frames_at_the_same_instant() {
        // enter a, enter b, exit a — b must close when a does.
        let t = run_script(&[
            ("span:a:enter", 0),
            ("span:b:enter", 100),
            ("span:a:exit", 500),
        ]);
        assert_eq!(t.unmatched_exits, 0);
        let a = &t.root.children[0];
        assert_eq!(a.wall_ns, 500);
        assert_eq!(a.children[0].name, "b");
        assert_eq!(a.children[0].wall_ns, 400);
    }

    #[test]
    fn dangling_enters_close_at_finish_and_recursion_nests() {
        let mut p = Profiler::new();
        p.enter("f", 0, 0, 0);
        p.enter("f", 10, 5, 1);
        p.exit("f", 20, 8, 2);
        // Outer `f` left open; finish closes it.
        let t = p.finish(100, 50, 9);
        let f = &t.root.children[0];
        assert_eq!((f.calls, f.wall_ns), (1, 100));
        assert_eq!(
            (f.children[0].name.as_str(), f.children[0].wall_ns),
            ("f", 10)
        );
        assert_eq!(t.root.wall_ns, 100);
        assert_eq!(t.root.commands, 9);
    }

    #[test]
    fn time_reversed_markers_saturate_instead_of_panicking() {
        let mut p = Profiler::new();
        p.enter("x", 1_000, 500, 10);
        p.exit("x", 400, 200, 3); // wall/sim/commands all go backwards
        let t = p.finish(0, 0, 0);
        let x = &t.root.children[0];
        assert_eq!((x.wall_ns, x.sim_ps, x.commands), (0, 0, 0));
        assert_eq!(x.self_ns(), 0);
    }

    #[test]
    fn free_form_markers_are_ignored() {
        let t = run_script(&[("program:write-read", 5), ("span:unterminated", 7)]);
        assert!(t.root.children.is_empty());
        assert_eq!(t.unmatched_exits, 0);
    }

    #[test]
    fn structure_signature_is_wall_clock_free_and_stable() {
        let script = [
            ("phase:structure", 0u64),
            ("span:probe:enter", 10),
            ("span:probe:exit", 60),
            ("phase:remap", 100),
        ];
        // Same stream, wildly different wall clocks.
        let slow: Vec<(&str, u64)> = script.iter().map(|(l, w)| (*l, w * 997)).collect();
        let a = run_script(&script);
        let b = run_script(&slow);
        assert_eq!(a.structure_signature(), b.structure_signature());
        assert_ne!(a.to_json(), b.to_json(), "wall fields do differ");
        let sig = a.structure_signature();
        assert!(sig.contains("phase:structure calls=1"), "{sig}");
        assert!(sig.contains("  probe calls=1"), "{sig}");
    }

    #[test]
    fn renderings_cover_text_json_and_collapsed() {
        let t = run_script(&[
            ("phase:structure", 0),
            ("span:probe:enter", 100),
            ("span:probe:exit", 600),
            ("phase:power", 1_000),
        ]);
        let text = t.to_text();
        assert!(text.contains("phase:structure"), "{text}");
        assert!(text.contains("probe"), "{text}");

        let json = t.to_json();
        assert!(
            json.starts_with("{\"schema\":\"dramscope.perf.spans\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"probe\""), "{json}");
        // The JSON parses back with this crate's own reader.
        let v = json::parse("spans.json", &json).expect("self-parse");
        assert_eq!(
            v.as_object().unwrap()["root"].as_object().unwrap()["name"].as_str(),
            Some(ROOT_NAME)
        );

        let collapsed = t.to_collapsed();
        assert!(
            collapsed.contains("run;phase:structure;probe 500\n"),
            "{collapsed}"
        );
        // Every line is `stack<space>integer`.
        for line in collapsed.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("two fields");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("integer value");
        }
    }
}
