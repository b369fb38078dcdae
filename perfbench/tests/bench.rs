//! The benchmark's own tests: every workload reports every metric that
//! `BENCHMARK.json` names, a wrong body is a failure, and a seed fixes the
//! inputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

use sweb_perfbench::gen::{self, Generator};
use sweb_perfbench::run::{run, start_cluster, Options};
use sweb_perfbench::workload::{poisson_schedule, Kind, Op, Workload};
use sweb_telemetry::Json;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list (the unit
/// is empty for workloads).
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("listed in BENCHMARK.json")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    for kind in Kind::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Options {
                kind,
                seed: 5,
                seconds: 1.0,
                trace,
                workdir: scratch(&format!("emit-{}-{trace}", kind.name())),
            };
            let report = run(&opts).expect("run completes");
            assert!(
                report.correct,
                "{}: {}",
                kind.name(),
                report.detail.render()
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|&(n, v, u)| {
                    assert!(v.is_finite(), "{n} = {v}");
                    (n.to_string(), u.to_string())
                })
                .collect();
            assert_eq!(got, declared(list), "{} trace={trace}", kind.name());
            let line = report.result_json().render();
            let parsed = Json::parse(&line).expect("result line is JSON");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(parsed.get(key).is_some(), "result line lacks {key}");
            }
            assert!(!opts.workdir.exists(), "scratch directory left behind");
        }
    }
}

#[test]
fn a_corrupted_document_body_counts_as_a_failure() {
    let wl = Workload::generate(Kind::StaticSmall, 3);
    let docroot = scratch("corrupt");
    wl.write_docroot(&docroot).expect("docroot");
    let victim = &wl.docs[0];
    let mut bytes = victim.body.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(docroot.join(victim.path.trim_start_matches('/')), bytes).expect("corrupt");

    let cluster = start_cluster(&wl, &docroot).expect("cluster");
    let limit = 200;
    let phase = gen::closed(
        &Generator::new(&wl, &cluster),
        &AtomicU64::new(0),
        30.0,
        limit,
        false,
        None,
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&docroot).expect("cleanup");

    let victims = wl.stream[..limit as usize]
        .iter()
        .filter(|e| e.op == Op::Static(0))
        .count() as u64;
    assert!(victims > 0);
    assert_eq!(phase.attempted, limit);
    assert_eq!(
        phase.failed, victims,
        "exactly the corrupted document's requests fail"
    );
    assert!(
        phase.errors.iter().all(|e| e.contains("body mismatch")),
        "{:?}",
        phase.errors
    );
}

#[test]
fn the_same_seed_yields_the_same_docroot_and_request_stream() {
    for kind in Kind::ALL {
        let (a, again) = (Workload::generate(kind, 42), Workload::generate(kind, 42));
        assert_eq!(a, again, "{}", kind.name());
        let b = Workload::generate(kind, 43);
        assert_ne!(a.docs, b.docs);
        assert_ne!(a.stream, b.stream);
        for seq in 0..200u64 {
            let op = a.stream[seq as usize].op;
            assert_eq!(a.request_bytes(op, seq), again.request_bytes(op, seq));
        }
        assert_eq!(
            poisson_schedule(42, 1, kind.open_rate(), 1.0),
            poisson_schedule(42, 1, kind.open_rate(), 1.0)
        );
    }
    // On disk too: two docroots from one seed are byte-identical.
    let wl = Workload::generate(Kind::SwebZipf, 7);
    let (x, y) = (scratch("seed-x"), scratch("seed-y"));
    wl.write_docroot(&x).expect("docroot x");
    Workload::generate(Kind::SwebZipf, 7)
        .write_docroot(&y)
        .expect("docroot y");
    for doc in &wl.docs {
        let rel = doc.path.trim_start_matches('/');
        assert_eq!(
            std::fs::read(x.join(rel)).expect("x"),
            std::fs::read(y.join(rel)).expect("y")
        );
    }
    std::fs::remove_dir_all(x).expect("cleanup x");
    std::fs::remove_dir_all(y).expect("cleanup y");
}
