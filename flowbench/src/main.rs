//! `flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::time::Duration;

/// Longest a run may take before it gives up without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() {
    let args = match flowbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}");
            std::process::exit(2);
        }
    };
    // A hung socket or a stuck run must not hang the caller: past the
    // watchdog the process exits without a result.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "flowbench: no result after {} s, giving up",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    flowbench::run(&args);
}
