//! `sweb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::process::ExitCode;

use sweb_perfbench::run::{run, Options};
use sweb_perfbench::workload::Kind;

fn usage() -> ExitCode {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!(
        "usage: sweb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage();
    };
    let workdir = std::path::PathBuf::from(".perfbench").join(format!(
        "{}-{seed}-{}",
        kind.name(),
        std::process::id()
    ));
    let result = run(&Options {
        kind,
        seed,
        seconds,
        trace,
        workdir,
    });
    // The per-run directory is gone; drop the parent too once empty.
    let _ = std::fs::remove_dir(".perfbench");
    match result {
        Ok(report) => {
            if report.detail.get("valid").and_then(|v| v.as_bool()) == Some(false) {
                eprintln!(
                    "sweb-perfbench: the generator was saturated; latency is not the server's"
                );
            }
            println!("{}", report.detail.render());
            println!("{}", report.result_json().render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
