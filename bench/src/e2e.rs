//! The end-to-end run (`--trace 0`): what a client of the serving path
//! sees, tracer off. Timed set-up, a quiesced answer check, a fixed
//! warm-up, the measured closed-loop phase for `--seconds`, the answer
//! check again — then the set-up several times more, for its median.

use crate::inputs::Kind;
use crate::load;
use crate::report::RunReport;
use crate::stats::{median, percentile, Outcome};
use crate::sut::{check_answers, peak_rss_mb, Sut};
use crate::traced::{CHECK_AFTER, CHECK_BEFORE};

/// Set-ups per run; `setup_s` is their median. At least `MIN_SETUPS`,
/// and more (up to `MAX_SETUPS`) while they are cheap: a 0.1 s set-up
/// needs more repeats than a 2 s one for its median to hold still.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;
/// Where the warm-up and the measured phase read the request stream —
/// past everything the traced pass and the answer checks use.
const WARM_FROM: u64 = 2048;
const MEASURE_FROM: u64 = 8192;

/// Warm-up requests: enough draws for the skewed pool to be cached, a
/// few dozen elsewhere (nothing there repeats, or every write discards
/// what reads cached).
fn warmup_len(kind: Kind) -> u64 {
    match kind {
        Kind::HopZipf => 256,
        _ => 48,
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> Result<RunReport, String> {
    let mut report = RunReport {
        workload: kind.name().to_owned(),
        trace: false,
        correct: true,
        ..RunReport::default()
    };
    rpq_trace::tracer().set_enabled(false);

    // the first system is the measured one: its process has done nothing
    // else, so `peak_rss_mb` is one system's life, not the allocator's
    // memory of a dozen earlier set-ups
    let sut = Sut::start(kind, seed, smoke)?;
    let mut setups = vec![sut.setup_s];
    let (mut checked, mut wrong) = check_answers(&sut, CHECK_BEFORE)?;

    let mut warm = Outcome::default();
    let mut client = sut.connect()?;
    for index in WARM_FROM..WARM_FROM + warmup_len(kind) {
        load::send(&mut client, &sut.inputs.request(index), &mut warm);
    }
    drop(client);

    let phase = load::run(&sut, MEASURE_FROM, seconds)?;

    let (c, w) = check_answers(&sut, CHECK_AFTER)?;
    checked += c;
    wrong += w;
    let peak_rss = peak_rss_mb();
    sut.stop();

    // the remaining set-ups only time themselves
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let again = Sut::start(kind, seed, smoke)?;
        setups.push(again.setup_s);
        again.stop();
    }
    report.timing("setup_s", median(&setups).unwrap_or(f64::NAN), setups.len());

    let mut reads = phase.outcome.read_ms.clone();
    reads.sort_by(f64::total_cmp);
    for (name, q) in [("read_p50_ms", 0.50), ("read_p95_ms", 0.95)] {
        match percentile(&reads, q) {
            Some(v) => report.timing(name, v, reads.len()),
            None => report.problem(format!(
                "{name}: {} read samples do not support the percentile",
                reads.len()
            )),
        }
    }
    report.timing(
        "read_qps",
        phase.outcome.queries_answered as f64 / phase.wall_s.max(1e-9),
        reads.len(),
    );
    match peak_rss {
        Some(mb) => report.timing("peak_rss_mb", mb, 1),
        None => report.problem("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }

    report.attempted = warm.attempted + phase.outcome.attempted + checked;
    report.failed = warm.failed + phase.outcome.failed + wrong;
    if wrong > 0 {
        report.problem(format!("{wrong} of {checked} sampled answers were wrong"));
    }
    if warm.failed + phase.outcome.failed > 0 {
        report.problem(format!(
            "{} requests failed ({} of them 429s)",
            warm.failed + phase.outcome.failed,
            warm.rejected_429 + phase.outcome.rejected_429
        ));
    }
    eprintln!(
        "rpq-ledger: {}: {} reads + {} writes in {:.2} s on {} connections, {} answers checked",
        kind.name(),
        reads.len(),
        phase.outcome.write_ms.len(),
        phase.wall_s,
        load::connections(),
        checked
    );
    Ok(report)
}
