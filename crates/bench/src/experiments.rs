//! Experiment drivers for every table and figure of the paper's
//! evaluation. Each driver returns a printable report; the `src/bin/*`
//! binaries are thin wrappers. Run them in release mode:
//!
//! ```text
//! cargo run --release -p dramscope-bench --bin table3
//! ```

use dram_module::Dimm;
use dram_sim::{ChipProfile, DramChip, Time};
use dram_testbed::Testbed;
use dramscope_core::fleet;
use dramscope_core::hammer;
use dramscope_core::hammer::Attack;
use dramscope_core::mapping;
use dramscope_core::observations::ObservationSuite;
use dramscope_core::patterns::{
    nibble_pattern_row, physical_image, writer_for_physical, CellLayout, CellPatternBuilder,
    DataPattern,
};
use dramscope_core::protect::{self, AttackStrategy, MisraGries, RowSwapDefense, Scrambler};
use dramscope_core::report::{Series, Table};
use dramscope_core::rowcopy_probe;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;

/// The fixed silicon seed used by all experiment binaries.
pub const SEED: u64 = 0x5ca1e;

/// A suite on the Mfr. A ×4 2021 device (the microscopic-analysis device
/// of §V), probing inside its first interior subarray (832..1664).
fn suite_2021() -> ObservationSuite {
    ObservationSuite::with_profile_range(ChipProfile::mfr_a_x4_2021(), SEED, 840, 896)
}

/// Table I: the device population — the same jobs the fleet engine
/// characterizes in parallel ([`fleet::table1_jobs`]).
pub fn table1() -> Result<String, Box<dyn Error>> {
    let mut t = Table::new(vec![
        "profile",
        "vendor",
        "type",
        "density",
        "year",
        "rows/bank",
        "row bits",
    ]);
    for p in fleet::table1_jobs().into_iter().map(|j| j.profile) {
        t.row(vec![
            p.label(),
            p.vendor.to_string(),
            p.io_width.to_string(),
            format!("{}Gb", p.density_gbit),
            if p.year == 0 {
                "N/A".into()
            } else {
                p.year.to_string()
            },
            p.rows_per_bank.to_string(),
            p.row_bits.to_string(),
        ]);
    }
    Ok(format!(
        "Table I — simulated device population (one profile per distinct structure)\n{t}"
    ))
}

/// Summarizes a height sequence as Table III does ("11 x 640 + 2 x 576").
pub fn summarize_heights(heights: &[u32]) -> String {
    if heights.is_empty() {
        return "(none)".into();
    }
    // Find the shortest repeating block.
    let block_len = (1..=heights.len())
        .find(|&k| {
            heights
                .iter()
                .enumerate()
                .all(|(i, h)| *h == heights[i % k])
        })
        .unwrap_or(heights.len());
    let block = &heights[..block_len];
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &h in block {
        *counts.entry(h).or_default() += 1;
    }
    let body = counts
        .iter()
        .rev()
        .map(|(h, c)| format!("{c} x {h}-row"))
        .collect::<Vec<_>>()
        .join(" + ");
    let total: u32 = block.iter().sum();
    format!("{body} (per {total})")
}

/// Table III: discover subarray composition, edge interval, and coupled
/// distance of every distinct structure, via RowCopy probing.
pub fn table3() -> Result<String, Box<dyn Error>> {
    let profiles = vec![
        ChipProfile::mfr_a_x4_2016(),
        ChipProfile::mfr_a_x4_2018(),
        ChipProfile::mfr_a_x8_2017(),
        ChipProfile::mfr_a_x8_2018(),
        ChipProfile::mfr_b_x4_2019(),
        ChipProfile::mfr_b_x8_2017(),
        ChipProfile::mfr_c_x4_2018(),
        ChipProfile::mfr_c_x8_2016(),
        ChipProfile::mfr_c_x8_2019(),
        ChipProfile::hbm2_mfr_a(),
    ];
    let mut t = Table::new(vec![
        "device",
        "subarray composition (measured)",
        "edge interval",
        "coupled distance",
        "matches ground truth",
    ]);
    // Each device probes independently, so fan the population out on the
    // fleet engine; rows come back in the population order above.
    let rows = fleet::parallel_map(&profiles, 0, |p| {
        let label = p.label();
        let gt_comp = summarize_heights(&{
            let chip = DramChip::new(p.clone(), SEED);
            chip.ground_truth().composition
        });
        let mut tb = Testbed::new(DramChip::new(p.clone(), SEED));
        let scan_end = 8193.min(tb.rows());
        let heights = rowcopy_probe::subarray_heights(&mut tb, 0, 0..scan_end)?;
        let comp = summarize_heights(&heights);
        let edge = rowcopy_probe::detect_edge_interval(&mut tb, 0)?;
        let coupled = rowcopy_probe::detect_coupled_rows(&mut tb, 0)?;
        let gt = tb.chip().ground_truth();
        let ok =
            comp == gt_comp && edge == Some(gt.edge_interval_wls) && coupled == gt.coupled_distance;
        Ok(vec![
            label,
            comp,
            edge.map_or("?".into(), |e| format!("per {}K rows", e >> 10)),
            coupled.map_or("N/A".into(), |d| format!("{}K rows", d >> 10)),
            if ok { "yes".into() } else { "NO".into() },
        ])
    });
    for row in rows {
        t.row(row?);
    }
    Ok(format!(
        "Table III — structures discovered through the command interface\n{t}"
    ))
}

/// Fig. 5: the RCD-inversion pitfall — naive hammering shows a
/// "non-adjacent" victim; mapping-aware analysis predicts every flip.
pub fn fig5_pitfalls() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    let dimm = Dimm::new(ChipProfile::mfr_b_x4_2019(), 4, SEED);
    let mut mtb = mapping::ModuleTestbed::new(dimm);

    // Aggressor crossing a low-3-bit carry: the B-side neighbour maps to
    // a distant controller row.
    let aggressor = 1031;
    let expected = mapping::aware_expected_victims(mtb.dimm(), aggressor);
    writeln!(
        out,
        "Fig. 5 — common pitfall 1 (RCD B-side address inversion)"
    )?;
    writeln!(out, "aggressor (controller row): {aggressor}")?;
    writeln!(out, "mapping-aware victim prediction: {expected:?}")?;

    let mut scan: Vec<u32> = (aggressor - 4..aggressor + 5).collect();
    scan.extend(expected.iter().copied());
    scan.sort_unstable();
    scan.dedup();
    let flips = mapping::hammer_and_scan_module(&mut mtb, 0, aggressor, &scan, 2_000_000)?;
    let mut t = Table::new(vec!["controller row", "chip", "side", "flips"]);
    for f in &flips {
        let side = format!("{:?}", mtb.dimm().side_of(f.chip));
        t.row(vec![
            f.row.to_string(),
            f.chip.to_string(),
            side,
            f.flips.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;
    let far = flips
        .iter()
        .filter(|f| f.row.abs_diff(aggressor) > 8)
        .count();
    writeln!(
        out,
        "naive interpretation: {far} victim locations look 'non-adjacent' — \
         all of them are B-side chips whose RCD address was inverted."
    )?;

    // Pitfall 3: the per-chip view of a naive uniform pattern.
    let per_chip = mapping::naive_pattern_per_chip(mtb.dimm(), 0x5555);
    writeln!(
        out,
        "common pitfall 3 (DQ twisting): controller writes 0x5 per nibble lane; \
         chips receive {per_chip:x?}"
    )?;
    Ok(out)
}

/// Fig. 7: the recovered data swizzling of a Mfr. A ×4 chip.
pub fn fig7_swizzle() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 7 — data swizzling of Mfr. A x4 (recovered through AIB + RowCopy)"
    )?;
    writeln!(
        out,
        "RD_data of one column is collected from {} MATs of width {} cells (O1/O2)",
        layout.row_bits() / layout.mat_width(),
        layout.mat_width()
    )?;
    let k = layout.rd_bits() / (layout.row_bits() / layout.mat_width());
    writeln!(
        out,
        "per-MAT chunk order (RD bits, physical left to right):"
    )?;
    for m in 0..layout.row_bits() / layout.mat_width() {
        let chunk: Vec<u32> = (0..k)
            .map(|i| layout.cell_at(m * layout.mat_width() + i).1)
            .collect();
        writeln!(out, "  MAT {m}: {chunk:?}")?;
    }
    let gt_swizzle = {
        let mut probe = suite_2021();
        probe.testbed_mut().chip().ground_truth().swizzle
    };
    let gt_layout = CellLayout::from_swizzle(&gt_swizzle, layout.row_bits(), layout.mat_width());
    let mut agree = true;
    'outer: for col in 1..layout.cols() - 1 {
        for bit in 0..layout.rd_bits() {
            let mut a = gt_layout.neighbors(col, bit, 1);
            let mut b = layout.neighbors(col, bit, 1);
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                agree = false;
                break 'outer;
            }
        }
    }
    writeln!(
        out,
        "neighbour relations agree with ground truth: {}",
        if agree { "yes" } else { "NO" }
    )?;
    Ok(out)
}

/// Fig. 8: what naive ColStripe/Checkered writes physically land as.
pub fn fig8_patterns() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let mut out = String::new();
    writeln!(out, "Fig. 8 — naive patterns vs their physical arrangement")?;
    for (name, pattern) in [
        ("ColStripe", DataPattern::ColStripe),
        ("Checkered (even row)", DataPattern::Checkered),
    ] {
        let img = physical_image(&layout, |c| pattern.naive_rd(0, c, layout.rd_bits()));
        let window: String = img[..48.min(img.len())]
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        writeln!(
            out,
            "{name}: intended alternation 0101..., lands as {window}... \
             (longest equal run {})",
            dramscope_core::patterns::longest_run(&img)
        )?;
    }
    writeln!(
        out,
        "a true physical ColStripe requires the recovered swizzle \
         (writer_for_physical), as used by every §V experiment."
    )?;
    Ok(out)
}

/// Fig. 10: BER of typical vs edge subarrays for (aggr, vic) = (0,1) and
/// (1,0), on DDR4 and HBM2.
pub fn fig10_edge_ber() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 10 — AIB BER by subarray type (victim pattern inverse of aggressor)"
    )?;
    for (name, profile, edge_aggr, interior_aggr) in [
        (
            "DDR4 (Mfr. A x4 2021)",
            ChipProfile::mfr_a_x4_2021(),
            10u32,
            850u32,
        ),
        ("HBM2 (Mfr. A)", ChipProfile::hbm2_mfr_a(), 10, 850),
    ] {
        let mut tb = Testbed::new(DramChip::new(profile, SEED));
        let cfg = dramscope_core::hammer::AibConfig {
            bank: 0,
            attack: Attack::Hammer { count: 1_800_000 },
        };
        let run = |tb: &mut Testbed, aggr: u32, vic_pat: u64, aggr_pat: u64| {
            hammer::measure_victim_flips(tb, cfg, aggr, aggr + 1, &|_| vic_pat, &|_| aggr_pat)
                .map(|r| r.len())
        };
        let cells = tb.chip().profile().row_bits as f64;
        let t01_edge = run(&mut tb, edge_aggr, u64::MAX, 0)? as f64 / cells;
        let t01_int = run(&mut tb, interior_aggr, u64::MAX, 0)? as f64 / cells;
        let t10_edge = run(&mut tb, edge_aggr, 0, u64::MAX)? as f64 / cells;
        let t10_int = run(&mut tb, interior_aggr, 0, u64::MAX)? as f64 / cells;
        let mut s = Series::new(format!("{name}: BER by (aggr,vic) and subarray type"));
        s.push("(0,1) typical", t01_int)
            .push("(0,1) edge", t01_edge)
            .push("(1,0) typical", t10_int)
            .push("(1,0) edge", t10_edge);
        writeln!(out, "{s}")?;
        writeln!(
            out,
            "edge/typical ratio: (0,1) {:.2}, (1,0) {:.2} — edge lower, most for aggr=1\n",
            t01_edge / t01_int.max(1e-12),
            t10_edge / t10_int.max(1e-12)
        )?;
    }
    Ok(out)
}

/// Fig. 12: BER vs physically-remapped bit index (mod 32) for RowPress and
/// RowHammer, by victim charge state and aggressor direction.
pub fn fig12_profile() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    // Fixed relative wordline parity — the paper's "even WL" selection.
    let triples = suite.triples_with_parity(12, 0)?;
    let press = Attack::Press {
        count: 24_000,
        each_on: Time::from_ns(7_800),
    };
    let hammer_attack = Attack::Hammer { count: 600_000 };

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 12 — flips by physical bit index mod 32 (Mfr. A x4, even-WL victims)"
    )?;
    for (mech_name, attack) in [("RowPress", press), ("RowHammer", hammer_attack)] {
        for (vic_name, vic_value) in [("charged", true), ("discharged", false)] {
            for (dir_name, use_up) in [("upper", true), ("lower", false)] {
                let vic = suite.solid_cols(if vic_value { u64::MAX } else { 0 });
                let aggr = suite.solid_cols(if vic_value { 0 } else { u64::MAX });
                let mut hist = vec![0u64; 32];
                for &(v, up, down) in &triples {
                    let a = if use_up { up } else { down };
                    for rec in suite.measure(a, v, attack, &vic, &aggr)? {
                        hist[(layout.position(rec.col, rec.bit) % 32) as usize] += 1;
                    }
                }
                let total: u64 = hist.iter().sum();
                let contrast = dramscope_core::analysis::alternation_contrast(&hist);
                let parity = if dramscope_core::analysis::dominant_parity(&hist) {
                    "even"
                } else {
                    "odd"
                };
                let line: Vec<String> = hist.iter().map(|h| h.to_string()).collect();
                writeln!(
                    out,
                    "{mech_name:9} {vic_name:10} {dir_name:5} aggressor | total {total:5} | contrast {contrast:6.1} ({parity}) | {}",
                    line.join(" ")
                )?;
            }
        }
    }
    writeln!(
        out,
        "\nexpected shape: alternating strong/weak buckets; reversal between \
         upper/lower direction and between charged/discharged (hammer); \
         RowPress discharged rows stay silent."
    )?;
    Ok(out)
}

/// Fig. 13: flips by gate class (A/B), charge state, and mechanism.
pub fn fig13_gate_types() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let chain = suite.phys_chain()?;
    let triples = suite.triples(12)?;
    let chain_index: BTreeMap<u32, usize> =
        chain.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let press = Attack::Press {
        count: 24_000,
        each_on: Time::from_ns(7_800),
    };
    let hammer_attack = Attack::Hammer { count: 600_000 };

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 13 — flips by gate type (A/B up to a global swap), charge, mechanism"
    )?;
    let mut t = Table::new(vec!["mechanism", "victim state", "gate A", "gate B"]);
    for (mech_name, attack) in [("RowPress", press), ("RowHammer", hammer_attack)] {
        for (vic_name, vic_value) in [("charged", true), ("discharged", false)] {
            let vic = suite.solid_cols(if vic_value { u64::MAX } else { 0 });
            let aggr = suite.solid_cols(if vic_value { 0 } else { u64::MAX });
            let mut gate = [0u64; 2];
            for &(v, up, down) in &triples {
                let vi = chain_index[&v];
                for (a, dir_up) in [(up, true), (down, false)] {
                    for rec in suite.measure(a, v, attack, &vic, &aggr)? {
                        let pos = layout.position(rec.col, rec.bit);
                        // Gate class: parity of (cell position + victim
                        // chain index + direction) — stable up to the
                        // global A/B ambiguity the paper also has.
                        let class = (pos as usize + vi + usize::from(dir_up)) % 2;
                        gate[class] += 1;
                    }
                }
            }
            t.row(vec![
                mech_name.into(),
                vic_name.into(),
                gate[0].to_string(),
                gate[1].to_string(),
            ]);
        }
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "expected: RowPress only in the charged state (both gates, one stronger); \
         RowHammer in both states, each state dominated by the opposite gate (O9/O10)."
    )?;
    Ok(out)
}

/// Fig. 14: relative BER under victim-side and aggressor-side horizontal
/// data-pattern changes.
pub fn fig14_horizontal() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let triples = suite.triples(10)?;
    // Boost measurements need headroom below BER = 1 (see O11).
    let attack = ObservationSuite::moderate_hammer();

    let targets: Vec<(u32, u32)> = (0..layout.row_bits())
        .filter(|p| p % 8 == 4)
        .map(|p| layout.cell_at(p))
        .collect();
    let count_targets = |layout: &CellLayout, recs: &[dram_testbed::BitflipRecord]| {
        recs.iter()
            .filter(|r| layout.position(r.col, r.bit) % 8 == 4)
            .count() as u64
    };

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 14 — horizontal data-pattern influence on RowHammer BER"
    )?;
    let mut t = Table::new(vec![
        "quantity",
        "Vic0=0 measured",
        "Vic0=0 paper",
        "Vic0=1 measured",
        "Vic0=1 paper",
    ]);

    // (a) victim side.
    let mut vic_rows: Vec<Vec<f64>> = Vec::new();
    for vic_value in [false, true] {
        let base_cols = suite.solid_cols(if vic_value { u64::MAX } else { 0 });
        let aggr_cols = suite.solid_cols(if vic_value { 0 } else { u64::MAX });
        let mut variants: Vec<Vec<u64>> = Vec::new();
        for dists in [&[1u32][..], &[2], &[1, 2]] {
            let mut b = CellPatternBuilder::solid(&layout, vic_value);
            for &(c, bit) in &targets {
                for &d in dists {
                    b.set_neighbors(c, bit, d, !vic_value);
                }
            }
            variants.push(b.columns());
        }
        let mut counts = [0u64; 4];
        for &(v, up, _) in &triples {
            counts[0] += count_targets(
                &layout,
                &suite.measure(up, v, attack, &base_cols, &aggr_cols)?,
            );
            for (i, var) in variants.iter().enumerate() {
                counts[i + 1] +=
                    count_targets(&layout, &suite.measure(up, v, attack, var, &aggr_cols)?);
            }
        }
        vic_rows.push(
            counts[1..]
                .iter()
                .map(|&c| c as f64 / counts[0].max(1) as f64)
                .collect(),
        );
    }
    for (i, (name, p0, p1)) in [
        ("(a) Vic±1 opposite", "1.12", "1.00"),
        ("(a) Vic±2 opposite", "1.54", "1.35"),
        ("(a) Vic±1,±2 opposite", "~1.7", "~1.5"),
    ]
    .iter()
    .enumerate()
    {
        t.row(vec![
            (*name).into(),
            format!("{:.2}", vic_rows[0][i]),
            (*p0).into(),
            format!("{:.2}", vic_rows[1][i]),
            (*p1).into(),
        ]);
    }

    // (b) aggressor side (cumulative sets, baseline aggressor opposite).
    let mut aggr_rows: Vec<Vec<f64>> = Vec::new();
    for vic_value in [false, true] {
        let vic_cols = suite.solid_cols(if vic_value { u64::MAX } else { 0 });
        let mut variants: Vec<Vec<u64>> =
            vec![suite.solid_cols(if vic_value { 0 } else { u64::MAX })];
        for dists in [&[0u32][..], &[0, 1], &[0, 1, 2]] {
            let mut b = CellPatternBuilder::solid(&layout, !vic_value);
            for &(c, bit) in &targets {
                for &d in dists {
                    if d == 0 {
                        b.set_cell(c, bit, vic_value);
                    } else {
                        b.set_neighbors(c, bit, d, vic_value);
                    }
                }
            }
            variants.push(b.columns());
        }
        let mut counts = [0u64; 4];
        for &(v, up, _) in &triples {
            for (i, var) in variants.iter().enumerate() {
                counts[i] += count_targets(&layout, &suite.measure(up, v, attack, &vic_cols, var)?);
            }
        }
        aggr_rows.push(
            counts[1..]
                .iter()
                .map(|&c| c as f64 / counts[0].max(1) as f64)
                .collect(),
        );
    }
    for (i, (name, p0, p1)) in [
        ("(b) Aggr0 same", "0.58", "0.72"),
        ("(b) Aggr0,±1 same", "0.46", "0.58"),
        ("(b) Aggr0,±1,±2 same", "0.38", "0.08"),
    ]
    .iter()
    .enumerate()
    {
        t.row(vec![
            (*name).into(),
            format!("{:.2}", aggr_rows[0][i]),
            (*p0).into(),
            format!("{:.2}", aggr_rows[1][i]),
            (*p1).into(),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(out)
}

/// Fig. 15: relative H_cnt as victim-neighbour data changes.
pub fn fig15_hcnt() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let triples = suite.triples(3)?;

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 15 — relative H_cnt (aggressor always opposite of Vic0)"
    )?;
    let mut t = Table::new(vec![
        "pattern",
        "Vic0=0 measured",
        "Vic0=0 paper",
        "Vic0=1 measured",
        "Vic0=1 paper",
    ]);
    let mut measured: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    for (vi, vic_value) in [false, true].into_iter().enumerate() {
        let (v, up, _) = triples[0];
        let base_cols = suite.solid_cols(if vic_value { u64::MAX } else { 0 });
        let aggr_cols = suite.solid_cols(if vic_value { 0 } else { u64::MAX });
        // Find the weakest interior target under the baseline pattern.
        let recs = suite.measure(
            up,
            v,
            ObservationSuite::strong_hammer(),
            &base_cols,
            &aggr_cols,
        )?;
        let target = recs
            .iter()
            .map(|r| (r.col, r.bit))
            .find(|&(c, b)| {
                let p = layout.position(c, b) % layout.mat_width();
                (4..layout.mat_width() - 4).contains(&p)
            })
            .ok_or("no interior weak cell")?;
        let tb = suite.testbed_mut();
        let base = hammer::hcnt_for_cell(
            tb,
            0,
            up,
            v,
            &|_| if vic_value { u64::MAX } else { 0 },
            &|_| if vic_value { 0 } else { u64::MAX },
            target,
            8_000_000,
        )?
        .count
        .ok_or("baseline never flipped")? as f64;
        for dists in [&[1u32][..], &[2], &[1, 2]] {
            let mut b = CellPatternBuilder::solid(&layout, vic_value);
            for &d in dists {
                b.set_neighbors(target.0, target.1, d, !vic_value);
            }
            let cols = b.columns();
            let tb = suite.testbed_mut();
            let adv = hammer::hcnt_for_cell(
                tb,
                0,
                up,
                v,
                &|c| cols[c as usize],
                &|_| if vic_value { 0 } else { u64::MAX },
                target,
                8_000_000,
            )?
            .count
            .ok_or("variant never flipped")? as f64;
            measured[vi].push(adv / base);
        }
    }
    for (i, (name, p0, p1)) in [
        ("Vic±1 opposite", "0.95", "0.91"),
        ("Vic±2 opposite", "0.87", "0.91"),
        ("Vic±1,±2 opposite", "0.81", "0.90"),
    ]
    .iter()
    .enumerate()
    {
        t.row(vec![
            (*name).into(),
            format!("{:.3}", measured[0][i]),
            (*p0).into(),
            format!("{:.3}", measured[1][i]),
            (*p1).into(),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(out)
}

/// A normalized 16×16 BER matrix (victim nibble × aggressor nibble).
pub type SweepMatrix = Vec<Vec<f64>>;

/// Fig. 16: the 16×16 sweep of physically 4-bit-repeating victim and
/// aggressor patterns. Returns the report and the normalized matrix.
pub fn fig16_sweep() -> Result<(String, SweepMatrix), Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let triples = suite.triples(4)?;
    let attack = Attack::Hammer { count: 1_200_000 };

    let mut counts = vec![vec![0u64; 16]; 16];
    for vic_nib in 0..16u8 {
        let vic_cols = nibble_pattern_row(&layout, vic_nib);
        for aggr_nib in 0..16u8 {
            let aggr_cols = nibble_pattern_row(&layout, aggr_nib);
            let mut c = 0;
            for &(v, up, _) in &triples {
                c += suite.measure(up, v, attack, &vic_cols, &aggr_cols)?.len() as u64;
            }
            counts[vic_nib as usize][aggr_nib as usize] = c;
        }
    }
    let baseline = counts[0xF][0x0].max(1) as f64;
    let matrix: Vec<Vec<f64>> = counts
        .iter()
        .map(|row| row.iter().map(|&c| c as f64 / baseline).collect())
        .collect();

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 16 — BER of 4-bit repeating (victim, aggressor) patterns, \
         normalized to (0xF, 0x0); rows = victim nibble, cols = aggressor nibble"
    )?;
    write!(out, "      ")?;
    for a in 0..16 {
        write!(out, " a={a:<4x}")?;
    }
    writeln!(out)?;
    let mut worst = (0.0f64, 0usize, 0usize);
    for (v, row) in matrix.iter().enumerate() {
        write!(out, "v={v:<2x} |")?;
        for (a, &val) in row.iter().enumerate() {
            write!(out, " {val:5.2}")?;
            if val > worst.0 {
                worst = (val, v, a);
            }
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "worst case: victim 0x{:x}, aggressor 0x{:x} at {:.2}x baseline \
         (paper: 0x3/0xC at 1.69x)",
        worst.1, worst.2, worst.0
    )?;
    Ok((out, matrix))
}

/// Fig. 17: the worst-case adversarial pattern vs the baseline, with
/// finer statistics.
pub fn fig17_worst_case() -> Result<String, Box<dyn Error>> {
    let mut suite = suite_2021();
    let layout = suite.layout()?;
    let triples = suite.triples(12)?;
    let attack = Attack::Hammer { count: 1_200_000 };
    let mut base = 0u64;
    let mut adv = 0u64;
    for &(v, up, _) in &triples {
        base += suite
            .measure(
                up,
                v,
                attack,
                &nibble_pattern_row(&layout, 0xF),
                &nibble_pattern_row(&layout, 0x0),
            )?
            .len() as u64;
        adv += suite
            .measure(
                up,
                v,
                attack,
                &nibble_pattern_row(&layout, 0x3),
                &nibble_pattern_row(&layout, 0xC),
            )?
            .len() as u64;
    }
    Ok(format!(
        "Fig. 17 — worst-case adversarial pattern (victim 0x3 / aggressor 0xC physical)\n\
         baseline (0xF/0x0): {base} flips; adversarial: {adv} flips; \
         ratio {:.2}x (paper: 1.69x)\n\
         the pattern pairs opposite vertical neighbours with 2-bit repeating \
         horizontal runs, exploiting O11 (Vic±2) and O12 (Aggr opposite).\n",
        adv as f64 / base.max(1) as f64
    ))
}

/// §VI: attack-vs-defense evaluation, including the coupled-row split and
/// data scrambling against the adversarial pattern.
pub fn sec6_protection() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    writeln!(out, "Section VI — attacks and protections")?;

    // Coupled-row scenarios on the coupled test chip.
    let mk = || Testbed::new(DramChip::new(ChipProfile::test_small_coupled(), SEED));
    let aggr = 45;
    let victims = [44u32, 46];
    let mut probe = mk();
    let n_star = protect::first_flip_count(&mut probe, 0, aggr, &[44, 46, 1068, 1070], 8_000_000)?
        .ok_or("no flips at ceiling")?;
    writeln!(out, "first-flip activation count (N*): {n_star}")?;

    let mut t = Table::new(vec!["scenario", "victim flips", "mitigations", "verdict"]);
    {
        // Coupled split so the flip count covers both wordline halves —
        // 2 x N* total dose guarantees at least one deterministic flip.
        let mut tb = mk();
        let mut noop = MisraGries::new(u64::MAX, 16);
        let o = protect::run_attack(
            &mut tb,
            &mut noop,
            aggr,
            AttackStrategy::CoupledSplit { distance: 1024 },
            n_star * 2,
            n_star / 8,
        )?;
        t.row(vec![
            "unprotected, coupled split".into(),
            o.victim_flips.to_string(),
            o.mitigations.to_string(),
            "flips".into(),
        ]);
    }
    {
        let mut tb = mk();
        let mut mg = MisraGries::new(n_star / 2, 16);
        let o = protect::run_attack(
            &mut tb,
            &mut mg,
            aggr,
            AttackStrategy::SingleRow,
            n_star * 3,
            n_star / 8,
        )?;
        t.row(vec![
            "Misra-Gries tracker, single row".into(),
            o.victim_flips.to_string(),
            o.mitigations.to_string(),
            "safe".into(),
        ]);
    }
    {
        let mut tb = mk();
        let mut mg = MisraGries::new(n_star / 3, 16);
        let o = protect::run_attack(
            &mut tb,
            &mut mg,
            aggr,
            AttackStrategy::CoupledSplit { distance: 1024 },
            n_star * 3,
            n_star / 8,
        )?;
        t.row(vec![
            "oblivious tracker, coupled split".into(),
            o.victim_flips.to_string(),
            o.mitigations.to_string(),
            "safe (refresh-based), 2x tracked rows".into(),
        ]);
    }
    {
        let mut tb = mk();
        let mut mg = MisraGries::new(n_star / 3, 16).with_coupled_awareness(1024);
        let o = protect::run_attack(
            &mut tb,
            &mut mg,
            aggr,
            AttackStrategy::CoupledSplit { distance: 1024 },
            n_star * 3,
            n_star / 8,
        )?;
        t.row(vec![
            "coupled-aware tracker, coupled split".into(),
            o.victim_flips.to_string(),
            o.mitigations.to_string(),
            "safe, folds the pair".into(),
        ]);
    }
    {
        let threshold = 3 * n_star / 4;
        let mut tb = mk();
        let mut d = RowSwapDefense::new(threshold, 1500);
        let o = protect::run_attack_rowswap(
            &mut tb,
            &mut d,
            aggr,
            AttackStrategy::SingleRow,
            n_star * 2,
            threshold / 4,
        )?;
        t.row(vec![
            "row swap (RRS-like), single row".into(),
            o.victim_flips.to_string(),
            o.mitigations.to_string(),
            "safe (relocated)".into(),
        ]);
        let per_address = (threshold - 1) / 4 * 4;
        let mut tb2 = mk();
        let mut d2 = RowSwapDefense::new(threshold, 1500);
        let o2 = protect::run_attack_rowswap(
            &mut tb2,
            &mut d2,
            aggr,
            AttackStrategy::CoupledSplit { distance: 1024 },
            2 * per_address,
            per_address / 4,
        )?;
        t.row(vec![
            "row swap, coupled split (sub-threshold)".into(),
            o2.victim_flips.to_string(),
            o2.mitigations.to_string(),
            "BYPASSED (O3 vulnerability)".into(),
        ]);
    }
    writeln!(out, "{t}")?;

    // Data scrambling vs the adversarial pattern (on the small chip with
    // its ground-truth layout standing in for a completed RE pass).
    let tb = mk();
    let gt = tb.chip().ground_truth();
    let layout = CellLayout::from_swizzle(&gt.swizzle, tb.chip().profile().row_bits, gt.mat_width);
    let attack_count = 8 * n_star;
    let scramble_eval =
        |tb: &mut Testbed, scrambler: Option<Scrambler>| -> Result<u64, Box<dyn Error>> {
            let vic_cols = nibble_pattern_row(&layout, 0x3);
            let aggr_cols = nibble_pattern_row(&layout, 0xC);
            let apply = |s: &Option<Scrambler>, row: u32, col: u32, d: u64| match s {
                Some(sc) => sc.apply(row, col, d) & 0xFFFF_FFFF,
                None => d,
            };
            for (row, cols) in [(44, &vic_cols), (46, &vic_cols), (45, &aggr_cols)] {
                tb.write_row_with(0, row, |c| apply(&scrambler, row, c, cols[c as usize]))?;
            }
            tb.hammer(0, 45, attack_count)?;
            let mut flips = 0u64;
            for v in victims {
                let data = tb.read_row(0, v)?;
                for (c, &got) in data.iter().enumerate() {
                    let want = apply(&scrambler, v, c as u32, vic_cols[c]);
                    flips += (got ^ want).count_ones() as u64;
                }
            }
            Ok(flips)
        };
    let none = scramble_eval(&mut mk(), None)?;
    let row_keyed = scramble_eval(&mut mk(), Some(Scrambler::row_keyed(0xFEED)))?;
    let row_col = scramble_eval(&mut mk(), Some(Scrambler::row_col_keyed(0xFEED)))?;
    // Reference: the baseline solid pattern under the same dose.
    let mut tbb = mk();
    let base = {
        tbb.write_row_pattern(0, 44, 0xFFFF_FFFF)?;
        tbb.write_row_pattern(0, 46, 0xFFFF_FFFF)?;
        tbb.write_row_pattern(0, 45, 0)?;
        tbb.hammer(0, 45, attack_count)?;
        let mut f = 0u64;
        for v in victims {
            f += tbb
                .read_row(0, v)?
                .iter()
                .map(|d| (!d & 0xFFFF_FFFF).count_ones() as u64)
                .sum::<u64>();
        }
        f
    };
    writeln!(
        out,
        "adversarial-pattern flips at 8xN*: none {none}, row-keyed scrambler {row_keyed}, \
         row+col-keyed {row_col} (solid baseline {base})"
    )?;
    writeln!(
        out,
        "scrambling destroys the attacker's physical pattern; row+column keying \
         also removes the residual column structure (§VI-B)."
    )?;

    Ok(out)
}

/// §VI-B extension: in-DRAM TRR reverse engineering and RFM-based
/// mitigation of the coupled-row split.
pub fn trr_study() -> Result<String, Box<dyn Error>> {
    use dramscope_core::trr_re::{self, TrrVerdict};
    let mut out = String::new();
    writeln!(
        out,
        "In-DRAM mitigation study (TRRespass/U-TRR-style probing + DDR5 RFM)"
    )?;

    let aggr = 20u32;
    let victims = [19u32, 21];
    let mut t = Table::new(vec![
        "device",
        "TRR verdict",
        "sampler bound (decoys to bypass)",
    ]);
    for (name, entries) in [
        ("no TRR", 0usize),
        ("TRR, 1-entry sampler", 1),
        ("TRR, 2-entry sampler", 2),
    ] {
        let mut mk = || {
            let p = if entries == 0 {
                ChipProfile::test_small()
            } else {
                ChipProfile::test_small().with_trr(entries)
            };
            Testbed::new(DramChip::new(p, SEED))
        };
        let verdict = trr_re::detect_trr(&mut mk, 0, aggr, &victims, 200_000, 12)?;
        let bound = if verdict == TrrVerdict::Present {
            trr_re::estimate_sampler_size(&mut mk, 0, aggr, &victims, 70, 6, 200_000, 12)?
                .map_or("> 6".into(), |d| d.to_string())
        } else {
            "-".into()
        };
        t.row(vec![name.into(), format!("{verdict:?}"), bound]);
    }
    writeln!(out, "{t}")?;

    // RFM folds coupled aliases inside the DRAM (§VI-B).
    let mk_coupled = || {
        Testbed::new(DramChip::new(
            ChipProfile::test_small_coupled().with_trr(2),
            SEED,
        ))
    };
    let mut probe = mk_coupled();
    let n_star = protect::first_flip_count(&mut probe, 0, 45, &[44, 46, 1068, 1070], 8_000_000)?
        .ok_or("no first flip")?;
    let mut tb = mk_coupled();
    let rfm = protect::run_attack_with_rfm(
        &mut tb,
        protect::RfmPolicy { raaimt: n_star / 3 },
        45,
        AttackStrategy::CoupledSplit { distance: 1024 },
        3 * n_star,
        n_star / 8,
    )?;
    writeln!(
        out,
        "coupled split vs MC-driven RFM (RAAIMT = N*/3): {} victim flips after {} RFMs \
         — the in-DRAM sampler works on wordlines, folding the aliases automatically.",
        rfm.victim_flips, rfm.mitigations
    )?;
    Ok(out)
}

/// §VI-C extension: the power side channel and on-die ECC detection.
pub fn side_channels() -> Result<String, Box<dyn Error>> {
    use dramscope_core::{ecc_probe, power_channel};
    let mut out = String::new();
    writeln!(out, "Power side channel (§VI-C) and on-die ECC detection")?;

    // Edge-interval recovery from activation power alone, on the
    // full-size coupled device — cross-validating O5 without RowCopy.
    let mut tb = Testbed::new(DramChip::new(ChipProfile::mfr_a_x4_2016(), SEED));
    let interval = power_channel::edge_interval_from_power(&mut tb, 0, 64)?;
    let gt = tb.chip().ground_truth().edge_interval_wls;
    writeln!(
        out,
        "edge interval from the power rail: {interval:?} rows (RowCopy/ground truth: {gt})"
    )?;

    // Covert channel: 16 bits through row-selection power.
    let mut small = Testbed::new(DramChip::new(ChipProfile::test_small(), SEED));
    let bits: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let decoded = power_channel::transmit(&mut small, 0, 10, 50, &bits)?;
    writeln!(
        out,
        "covert channel (edge vs interior rows): {}/{} bits decoded correctly",
        decoded.iter().zip(&bits).filter(|(a, b)| a == b).count(),
        bits.len()
    )?;

    // On-die ECC detection from the first-visible-corruption signature.
    for (name, ecc) in [("plain chip", false), ("on-die-ECC chip", true)] {
        let mut mk = move || {
            let p = if ecc {
                ChipProfile::test_small().with_on_die_ecc()
            } else {
                ChipProfile::test_small()
            };
            Testbed::new(DramChip::new(p, SEED))
        };
        let v = ecc_probe::detect_on_die_ecc(&mut mk, 0, 20, 19, 8_000_000)?;
        writeln!(out, "{name}: ECC verdict {v:?}")?;
    }
    Ok(out)
}

/// Full black-box dossier of the flagship device (also available per
/// device via the `characterize` binary).
pub fn dossier_report() -> Result<String, Box<dyn Error>> {
    use dramscope_core::dossier::{characterize, CharacterizeOptions};
    let opts = CharacterizeOptions {
        with_swizzle: true,
        probe_range: (648, 704),
        ..CharacterizeOptions::default()
    };
    let d = characterize(&ChipProfile::mfr_a_x4_2016(), SEED, opts)?;
    Ok(d.to_string())
}

/// The parallel fleet run over the full Table I population: one worker
/// per device, deterministic per-profile seeds, per-device run stats.
/// Prints the human summary table followed by the machine-readable
/// JSON-lines run report (also available via `characterize fleet`).
pub fn fleet_report() -> Result<String, Box<dyn Error>> {
    let jobs = fleet::table1_jobs();
    let report = fleet::run_fleet(&jobs, SEED, fleet::FleetConfig::default(), None);
    let mut out = String::new();
    writeln!(
        out,
        "Fleet characterization — {} profiles on {} workers, {:.0} ms wall",
        report.results.len(),
        report.workers,
        report.wall_ms
    )?;
    out.push_str(&report.table());
    writeln!(out, "\nRun report (JSON lines):")?;
    out.push_str(&report.json_lines());
    Ok(out)
}

/// The observation suite as a printable report (used by the
/// `observations` binary).
pub fn observations_report() -> Result<String, Box<dyn Error>> {
    let mut suite = ObservationSuite::new(SEED);
    let mut out = String::from("Observations O1-O14 on Mfr. A x4 2016 (seed 0x5ca1e)\n");
    for r in suite.run_all()? {
        writeln!(out, "{r}")?;
    }
    Ok(out)
}

/// A fast structural sanity kernel used by the smoke tests.
pub fn quick_structural_kernel() -> Result<usize, Box<dyn Error>> {
    let mut tb = Testbed::new(DramChip::new(ChipProfile::test_small(), SEED));
    let heights = rowcopy_probe::subarray_heights(&mut tb, 0, 0..129)?;
    Ok(heights.len())
}

/// A fast pattern-image kernel used by the smoke tests.
pub fn quick_pattern_kernel() -> usize {
    let chip = DramChip::new(ChipProfile::test_small(), SEED);
    let gt = chip.ground_truth();
    let layout = CellLayout::from_swizzle(&gt.swizzle, 256, gt.mat_width);
    let cols = writer_for_physical(&layout, |p| p % 4 < 2);
    physical_image(&layout, |c| cols[c as usize]).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heights_summary_matches_table_iii_format() {
        let mut block = vec![640u32; 11];
        block.extend([576, 576]);
        let mut two_blocks = block.clone();
        two_blocks.extend(block);
        assert_eq!(
            summarize_heights(&two_blocks),
            "11 x 640-row + 2 x 576-row (per 8192)"
        );
        assert_eq!(
            summarize_heights(&[832, 832, 832, 832, 768]),
            "4 x 832-row + 1 x 768-row (per 4096)"
        );
        assert_eq!(
            summarize_heights(&[688, 680, 680, 688, 680, 680]),
            "1 x 688-row + 2 x 680-row (per 2048)"
        );
        assert_eq!(summarize_heights(&[]), "(none)");
    }

    #[test]
    fn quick_kernels_run() {
        assert_eq!(quick_structural_kernel().unwrap(), 4);
        assert!(quick_pattern_kernel() == 256);
    }
}
