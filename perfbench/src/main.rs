//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record, then (traced runs) the per-module table, and
//! as the last line the JSON result. `--record <last>` instead prints
//! the workload's reference rows for seeds `0..=last`, in the format of
//! `perfbench/reference.tsv`.

use asuca_perfbench::report::expected;
use asuca_perfbench::workload::{Precision, Reference, Workload, REFERENCE_TSV};
use asuca_perfbench::{host_record, measure, record, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::by_name(&args.workload).expect("validated by Args::parse");

    if let Some(last) = args.record {
        let rows = match w.precision {
            Precision::F32 => record::<f32>(&w, last),
            Precision::F64 => record::<f64>(&w, last),
        };
        return match rows {
            Ok(rows) => {
                print!("{rows}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let reference = match Reference::parse(REFERENCE_TSV, w.name) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", host_record(&w));
    let outcome = match w.precision {
        Precision::F32 => measure::<f32>(&w, &args, &reference),
        Precision::F64 => measure::<f64>(&w, &args, &reference),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    match outcome.to_json(&expected(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
