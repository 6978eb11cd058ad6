//! Runs one benchmark invocation:
//!
//! ```text
//! perfbench --workload <train_shd|http_shd|stream_nmnist> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric by name with its unit, the run's details and
//! provenance, then as the last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The full record
//! (and, traced, a Chrome trace-event file Perfetto opens) is written
//! under `out/` beside this package's manifest.

use perfbench::{provenance, run, Options, Report, Scale, Workload};
use snn_json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Paper,
    })
}

fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn record(opts: &Options, report: &Report) -> Json {
    Json::obj(vec![
        ("provenance", provenance(opts)),
        ("result", report.result_json()),
        (
            "failures",
            Json::Arr(
                report
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("details", Json::Obj(report.details.clone())),
    ])
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <train_shd|http_shd|stream_nmnist> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &report.details {
        println!("  {key} = {value}");
    }
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let mut written = vec![write_out(
        &format!("{stem}.json"),
        &record(&opts, &report).to_string(),
    )];
    if opts.trace {
        written.push(write_out(
            &format!("{stem}.perfetto.json"),
            &report.tracer.chrome_json(),
        ));
    }
    for w in written {
        match w {
            Ok(path) => println!("  wrote {}", path.display()),
            Err(why) => eprintln!("perfbench: could not write output: {why}"),
        }
    }
    println!("{}", Json::obj(vec![("provenance", provenance(&opts))]));
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
