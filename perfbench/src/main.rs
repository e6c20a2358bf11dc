//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Earlier lines carry the host and configuration
//! fingerprint and every metric by name and unit. Exits non-zero when an
//! operation or an oracle check failed.
//!
//! Optional flag: `--out DIR` (default `.bench_out`).

use perfbench::report::{host_fingerprint, json_object, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ingest|views|durable_replica|propagate> --seed <n> \
         --seconds <s> --trace <0|1> [--out DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(v) = args.get(i + 1).map(String::as_str) else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = |what: &str| usage(&format!("bad {what}: {v}"));
        match flag {
            "--workload" => match Workload::parse(v) {
                Some(w) => workload = Some(w),
                None => return bad("workload"),
            },
            "--seed" => match v.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return bad("seed"),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return bad("seconds"),
            },
            "--trace" => match v {
                "0" => trace = false,
                "1" => trace = true,
                _ => return bad("trace"),
            },
            "--out" => out = Some(v.to_string()),
            _ => return usage(&format!("unknown argument {flag}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let mut cfg = Config::new(workload, seed);
    cfg.seconds = seconds;
    cfg.trace = trace;
    if let Some(o) = out {
        cfg.out_dir = o.into();
    }

    let report = run(&cfg);

    // Fingerprint: host, then the run's configuration.
    let mut fp = host_fingerprint();
    fp.push(("workload", workload.name().to_string()));
    fp.push(("seed", seed.to_string()));
    fp.push(("seconds", seconds.to_string()));
    fp.push(("trace", u8::from(trace).to_string()));
    fp.push(("input_digest", format!("{:016x}", report.input_digest)));
    fp.extend(report.config.iter().map(|(k, v)| (*k, v.clone())));
    let fingerprint = json_object(&fp);
    println!("{{\"fingerprint\": {fingerprint}}}");
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.values.get(name) {
            println!("# {name:<36} {v:>16.6} {unit}");
        }
    }
    let (defs, per_layer) = if trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let line = report.result_line(defs, per_layer);
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let _ = std::fs::write(
        cfg.out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            workload.name(),
            seed,
            u8::from(trace)
        )),
        format!(
            "{{\"fingerprint\": {fingerprint}, \"all_metrics\": {}, \"result\": {line}}}\n",
            report.result_line(
                &END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .copied()
                    .collect::<Vec<_>>(),
                true
            )
        ),
    );
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
