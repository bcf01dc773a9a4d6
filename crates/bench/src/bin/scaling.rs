//! Parallel scaling harness: morsel-driven HJ and SPHG speedup over the
//! serial kernels at thread counts 1/2/4/8, plus the HG-SPARSE/HG-ZIPF/
//! HG-SHIFTED hash-grouping and FILTER/GATHER materialisation rows at
//! DOP 2. Exits
//! non-zero if a checked parallel result differs from the serial one.
//!
//! ```text
//! cargo run -p dqo-bench --release --bin scaling                  # 1M rows
//! cargo run -p dqo-bench --release --bin scaling -- --rows 4000000
//! cargo run -p dqo-bench --release --bin scaling -- --json        # machine-readable report
//! ```

use dqo_bench::report::Table;
use dqo_bench::scaling::run;
use dqo_bench::Args;

fn main() {
    let args = Args::from_env();
    let rows: usize = args.value("--rows").unwrap_or(1_000_000);
    let groups: usize = args.value("--groups").unwrap_or(20_000);
    let reps: usize = args.value("--reps").unwrap_or(3);
    let threads = [1usize, 2, 4, 8];

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "scaling: {rows} rows, {groups} groups, threads {threads:?}, best of {reps} \
         ({cores} hardware core(s) available)"
    );
    let points = run(rows, groups, &threads, reps);

    let mut table = Table::new(&["workload", "threads", "ms", "speedup", "oracle"]);
    for p in &points {
        table.row(vec![
            p.workload.to_string(),
            if p.threads == 0 {
                "serial".to_string()
            } else {
                p.threads.to_string()
            },
            format!("{:.2}", p.millis),
            format!("{:.2}", p.speedup),
            match p.matches_serial {
                Some(true) => "ok",
                Some(false) => "MISMATCH",
                None => "-",
            }
            .to_string(),
        ]);
    }
    if args.flag("--json") {
        print!("{}", table.to_json());
    } else if args.flag("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }

    if points.iter().any(|p| p.matches_serial == Some(false)) {
        eprintln!("FAIL: a parallel result diverged from the serial one");
        std::process::exit(1);
    }
}
