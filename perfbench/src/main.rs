//! `rda-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints notes, then one JSON result line as the last line of stdout.
//! A traced run also writes its spans to `out/` in this package.

use rda_perfbench::run::{parse_args, run, USAGE};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    print!("{}", report.notes);
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rda_perfbench::spans::chrome_json(&report.spans)));
        match written {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), report.spans.len()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json_line());
}
