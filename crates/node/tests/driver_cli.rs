//! `hybrid-driver` command-line errors: degenerate graph specs are rejected
//! by the parser with exit code 2 and the usage line, before any node
//! process is spawned — never with a panic.
//!
//! Every spec here fails in the parser; none starts a fleet.

use std::process::Command;

#[test]
fn degenerate_graph_specs_exit_2_without_panicking() {
    let cases: [&[&str]; 5] = [
        &["--family", "path", "--n", "0"],
        &["--family", "cycle", "--n", "2"],
        &["--family", "path", "--n", "0", "--program", "gossip"],
        &["--family", "grid-0x5"],
        &["--family", "grid-70000x70000"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hybrid-driver"))
            .args(args)
            // A spec that slipped past the parser must still not start nodes.
            .args(["--node-bin", "/nonexistent/hybrid-node"])
            .output()
            .expect("hybrid-driver runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: hybrid-driver"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("cannot be built"), "{args:?}: {stderr}");
    }
}
