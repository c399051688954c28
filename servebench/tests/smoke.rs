//! A tiny-size run of every workload against a live server over TCP
//! (an in-process `slcs_engine` server, so the test needs no prebuilt
//! binary) emits every metric `BENCHMARK.json` lists.

use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;

use servebench::gen::{generate, WORKLOADS};
use servebench::oracle::expected_replies;
use servebench::proto::{Launcher, Served};
use servebench::{per_layer, run, END_TO_END};
use slcs_engine::{Engine, ServerConfig, ServerHandle};

struct InProcess {
    handle: ServerHandle,
}

impl Served for InProcess {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
    fn pid(&self) -> u32 {
        std::process::id()
    }
}

struct InProcessLauncher;

impl Launcher for InProcessLauncher {
    fn launch(&self) -> std::io::Result<Box<dyn Served>> {
        let engine = Arc::new(Engine::with_defaults());
        let handle = slcs_engine::serve("127.0.0.1:0", engine, ServerConfig::default())?;
        Ok(Box::new(InProcess { handle }))
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

/// The `"name"` values of one metric list in BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    body.split("\"name\"").skip(1).filter_map(|s| s.split('"').nth(1).map(str::to_string)).collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_emits() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed("per_layer"), layers);
    assert_eq!(listed("workloads"), WORKLOADS);
}

#[test]
fn every_workload_emits_every_metric() {
    for name in WORKLOADS {
        let wl = generate(name, 3, true).unwrap();
        let expected = expected_replies(&wl, 2);
        let r = run(&wl, &wl.lines(), &expected, &InProcessLauncher, 0.3).unwrap();
        assert_eq!(r.phase.failed(), 0, "{name}: {:?}", r.phase.failures);
        assert_eq!(r.warmup_failed, 0, "{name}: {:?}", r.warmup_failures);
        assert!(r.self_check(&wl).is_empty(), "{name}: {:?}", r.self_check(&wl));
        let e2e = r.end_to_end();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(e2e.iter().all(|v| v.is_finite() && *v >= 0.0), "{name}: {e2e:?}");
        assert!(e2e[..5].iter().all(|&v| v > 0.0), "{name}: {e2e:?}");

        let out = Command::new(env!("CARGO_BIN_EXE_replay"))
            .args(["--workload", name, "--seed", "3", "--tiny", "--out-dir"])
            .arg(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        let replayed: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("metric "))
            .filter_map(|l| l.split(' ').next())
            .collect();

        let mut emitted: Vec<String> = r.layer_metrics().into_iter().map(|(n, _)| n).collect();
        emitted.extend(replayed.iter().map(|n| n.to_string()));
        for (metric, _) in per_layer() {
            assert!(valid_name(&metric), "{metric}");
            assert!(emitted.contains(&metric), "{name}: {metric} not emitted");
        }
        assert_eq!(emitted.len(), per_layer().len(), "{name}: extra metrics {emitted:?}");
    }
}
