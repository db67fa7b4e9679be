//! Cross-checks the JavaScript what-if port against the Rust analyses.
//!
//! The explorer page recomputes containment effects client-side from the
//! embedded arc list; `PermeaExplorer.selfCheck` compares that recomputation
//! against the Rust-computed fixture embedded next to it and reports the
//! worst disagreement. This test runs the *actual shipped JavaScript* under
//! Node against a fixture exercising feedback loops, parallel paths and
//! multi-port modules, and requires bit-identical doubles (max |Δ| = 0) —
//! both sides are IEEE-754 with a pinned operation order.
//!
//! Skips (with a note) when no `node` binary is available.

use permea_core::backtrack::BacktrackForest;
use permea_core::graph::PermeabilityGraph;
use permea_core::matrix::PermeabilityMatrix;
use permea_core::placement::PlacementAdvisor;
use permea_core::topology::{SystemTopology, TopologyBuilder};
use permea_explorer::{ExplorerData, EXPLORER_JS};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deliberately awkward system: two externals, a feedback loop through
/// B←C, a module with several inputs and outputs, and two system outputs.
fn fixture() -> (SystemTopology, PermeabilityMatrix) {
    let mut b = TopologyBuilder::new("crosscheck");
    let x = b.external("x");
    let y = b.external("y");
    let a = b.add_module("A");
    b.bind_input(a, x);
    let s_a = b.add_output(a, "sA");
    // Feedback: C produces sC which feeds back into B, so declare C first
    // to have sC available when B's inputs are bound.
    let c = b.add_module("C");
    let s_c = b.add_output(c, "sC");
    let out2 = b.add_output(c, "out2");
    let bm = b.add_module("B");
    b.bind_input(bm, s_a);
    b.bind_input(bm, y);
    b.bind_input(bm, s_c);
    let s_b = b.add_output(bm, "sB");
    let out1 = b.add_output(bm, "out1");
    b.bind_input(c, s_b);
    b.mark_system_output(out1);
    b.mark_system_output(out2);
    let topo = b.build().expect("fixture topology is valid");

    let mut pm = PermeabilityMatrix::zeroed(&topo);
    let weights = [
        ("A", "x", "sA", 0.8),
        ("B", "sA", "sB", 0.45),
        ("B", "sA", "out1", 0.3),
        ("B", "y", "sB", 0.6),
        ("B", "y", "out1", 0.15),
        ("B", "sC", "sB", 0.25),
        ("B", "sC", "out1", 0.05),
        ("C", "sB", "sC", 0.7),
        ("C", "sB", "out2", 0.9),
    ];
    for (m, i, o, w) in weights {
        pm.set_named(&topo, m, i, o, w).expect("pair exists");
    }
    (topo, pm)
}

fn build_data() -> ExplorerData {
    let (topo, pm) = fixture();
    let graph = PermeabilityGraph::new(&topo, &pm).expect("graph builds");
    let forest = BacktrackForest::build(&graph).expect("forest builds");
    let plan = PlacementAdvisor::new(&graph)
        .expect("advisor builds")
        .plan();
    ExplorerData::new("crosscheck").with_analysis(&topo, &pm, &graph, &forest, &plan, 0.5)
}

/// Runs `node` with a harness that loads the shipped explorer.js and
/// self-checks the given data. Returns `None` when node is unavailable.
fn run_node_selfcheck(data_json: &str) -> Option<(bool, String)> {
    // Tests run in parallel threads of one process, so each call needs its
    // own directory: a shared one lets one test's files overwrite (or
    // delete) another's while node reads them.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("permea-crosscheck-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let js_path = dir.join("explorer.js");
    let data_path = dir.join("data.json");
    let harness_path = dir.join("harness.js");
    std::fs::write(&js_path, EXPLORER_JS).expect("write js");
    std::fs::write(&data_path, data_json).expect("write data");
    std::fs::write(
        &harness_path,
        "const fs = require('fs');\n\
         const ex = require(process.argv[2]);\n\
         const data = JSON.parse(fs.readFileSync(process.argv[3], 'utf8'));\n\
         const check = ex.selfCheck(data);\n\
         console.log(JSON.stringify(check));\n\
         process.exit(check.ok ? 0 : 1);\n",
    )
    .expect("write harness");
    let result = Command::new("node")
        .arg(&harness_path)
        .arg(&js_path)
        .arg(&data_path)
        .output();
    let out = match result {
        Ok(out) => out,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let _ = std::fs::remove_dir_all(&dir);
            return None;
        }
        Err(e) => panic!("running node failed: {e}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    Some((out.status.success(), format!("{stdout}{stderr}")))
}

#[test]
fn js_port_matches_rust_bit_for_bit() {
    let data = build_data();
    assert!(
        data.whatif.as_ref().is_some_and(|w| !w.effects.is_empty()),
        "fixture embeds a what-if section"
    );
    let json = serde_json::to_string(&data).expect("serialises");
    match run_node_selfcheck(&json) {
        None => eprintln!("skipping: no `node` binary on PATH"),
        Some((ok, output)) => {
            assert!(ok, "JS port disagrees with Rust fixture: {output}");
            assert!(
                output.contains("\"maxAbsDiff\":0"),
                "expected bit-identical doubles, got: {output}"
            );
        }
    }
}

#[test]
fn js_port_matches_after_html_embedding_roundtrip() {
    // The page embeds JSON with `<` escaped; make sure the roundtrip through
    // render_html -> extract -> JSON.parse preserves every double exactly.
    let data = build_data();
    let html = permea_explorer::render_html(&data, &[], &permea_explorer::HtmlOptions::default());
    let embedded = html
        .split("<script id=\"permea-data\" type=\"application/json\">")
        .nth(1)
        .expect("data block present")
        .split("</script>")
        .next()
        .expect("block closes");
    let reparsed: ExplorerData = serde_json::from_str(embedded).expect("embedded JSON parses");
    assert_eq!(reparsed, data);
    match run_node_selfcheck(embedded) {
        None => eprintln!("skipping: no `node` binary on PATH"),
        Some((ok, output)) => assert!(ok, "embedded JSON fails self-check: {output}"),
    }
}

#[test]
fn fixture_exercises_feedback_and_parallel_paths() {
    let data = build_data();
    let system = data.system.as_ref().expect("system embedded");
    assert_eq!(system.modules.len(), 3);
    assert_eq!(system.system_outputs.len(), 2);
    let all_paths: Vec<_> = data.backtrack.iter().flat_map(|t| &t.paths).collect();
    assert!(
        all_paths.iter().any(|p| p.terminal == "feedback"),
        "fixture must contain a feedback-cut path"
    );
    assert!(
        all_paths.iter().any(|p| p.terminal == "system_input"),
        "fixture must contain system-input paths"
    );
    // Every path's arc indices resolve and its weight is the product of
    // the referenced arc weights.
    for p in all_paths {
        let product: f64 = p.arcs.iter().map(|&i| system.arcs[i].weight).product();
        assert!((product - p.weight).abs() < 1e-15);
    }
}
