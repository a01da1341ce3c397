//! Seeded serving benchmark for the sharded live service.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_uncached --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Two workloads drive the public APIs of `obs_live`
//! (`ShardedLiveService`, `ShardedReader`, `QueryCache`) and
//! `obs_search` over the ~105k-document ranking world behind four
//! shards:
//!
//! * `query_uncached` — two closed-loop clients, uncached 1–3-term tag
//!   queries, no writes: the time goes to `obs_search` scoring.
//! * `ingest_churn` — one closed-loop writer committing routed churn
//!   batches (journal + fsync, copy-on-write apply, publish, re-blend),
//!   then recovery from the journals.
//!
//! Every run sets up the service several times and reports the median
//! set-up, warms the query path with one untimed pass over the query
//! pool, runs its workload for `--seconds`, restarts the service from
//! its journals, and checks the results against the unsharded engine,
//! the unpruned scorer and the recovered service. Every end-to-end
//! metric is reported by every workload: `query_uncached` follows its
//! timed queries with a fixed number of churn commits, and
//! `ingest_churn` alternates blocks of commits with blocks of queries on
//! the state it just published, so its query samples span the whole
//! run.
//!
//! `--trace 1` runs the workload once more, untimed, and then replays
//! queries and commits through a decomposed copy of the service's paths
//! with a span around each layer's call (see [`trace`]), reporting the
//! per-layer metrics instead. The replay also drives the service's
//! `QueryCache` with repeated (zipf) queries while its commits run,
//! checking each cached answer against `query_uncached` on the same
//! pin. Spans are written to `.bench_work/spans-<workload>.jsonl`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Lines before it, each starting with `#`, give provenance, sample
//! counts and bases. The exit code is non-zero when any check fails.

mod measure;
mod setup;
mod trace;
mod workloads;

use measure::{mean, median, quantile, rss_peak_mb, same_hits, Tally};
use obs_live::{CacheMetrics, QueryCache, ShardMetrics, ShardedLiveService};
use obs_model::CorpusDelta;
use obs_search::{scatter_query_unpruned, SearchEngine, SearchHit};
use obs_synth::{Rng64, World};
use obs_telemetry::{MetricValue, Registry};
use serde_json::{json, Value};
use setup::{set_up, ChurnGen, Fixture, QueryPool, CHURN_DELTAS, K, SHARDS};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Mirror, Tracer};
use workloads::{
    alternating, closed_commits, closed_queries, Phase, COMMIT_BLOCK, QUERY_BLOCK, QUERY_CLIENTS,
};

/// Opening posts in the benchmark world (the `live_service` 100k size).
const FULL_POSTS: usize = 100_000;
/// Set-ups per run; `setup_s` and `load_docs_per_s` are their medians.
const SETUPS: usize = 3;
/// Distinct queries in a pool (well above `CACHE_CAPACITY`).
const POOL: usize = 2_048;
/// Query-cache capacity in the traced replay, in entries.
const CACHE_CAPACITY: usize = 256;
/// Churn commits after `query_uncached`'s timed queries, for the commit
/// metrics its timed phase does not produce.
const SIDE_COMMITS: usize = 200;
/// Probe queries compared across the unsharded engine, the unpruned
/// scorer and the recovered service.
const PROBES: usize = 64;
/// Traced replay: queries, commits, and cached queries after each
/// commit.
const TRACE_QUERIES: u64 = 300;
const TRACE_COMMITS: u64 = 60;
const TRACE_CACHED_PER_COMMIT: u64 = 20;
/// Deltas per commit when the traced run's copy catches up with the
/// service's history (grouping does not change journal bytes or state).
const CATCH_UP_BURST: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    QueryUncached,
    IngestChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "query_uncached" => Some(Workload::QueryUncached),
            "ingest_churn" => Some(Workload::IngestChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QueryUncached => "query_uncached",
            Workload::IngestChurn => "ingest_churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    posts: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut posts = FULL_POSTS;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            // Smaller worlds for the benchmark's own test.
            "--posts" => {
                posts = value.parse::<usize>().map_err(|e| bad(e.to_string()))?;
                if posts < 100 {
                    return Err("--posts must be at least 100".into());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        posts,
    })
}

/// A directory removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every run reports.
struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = WorkDir(root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        std::process::exit(1);
    }
    print_provenance(&args);
    let outcome = if args.trace {
        traced_run(&args, &work.0, &root)
    } else {
        timed_run(&args, &work.0)
    };
    drop(work);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let metrics: serde_json::Map = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| (name.to_owned(), json!({"value": value, "unit": unit})))
        .collect();
    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    let correct = report.tally.failed == 0 && finite;
    for note in &report.tally.notes {
        println!("# FAILED: {note}");
    }
    if !finite {
        println!("# FAILED: a metric is not a finite number");
    }
    let result = json!({
        "correct": correct,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON value always serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn print_provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_owned(),
            |s| s.trim().to_owned(),
        );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} rustc=\"{}\" profile=\"{}\" commit={commit}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    println!(
        "# shards={SHARDS} k={K} query_clients={QUERY_CLIENTS} churn_deltas_per_commit={CHURN_DELTAS} \
         ingest_churn_blocks={}s commits/{}s queries traced_cache_capacity={CACHE_CAPACITY} \
         flush=fsync per group commit, per shard",
        COMMIT_BLOCK.as_secs_f64(),
        QUERY_BLOCK.as_secs_f64()
    );
}

/// Sets up `SETUPS` times, keeping the last service; returns it with
/// the per-set-up times.
fn repeated_set_up(args: &Args, work: &Path) -> Result<(Fixture, Vec<f64>, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut last: Option<Fixture> = None;
    for i in 0..SETUPS {
        if last.take().is_some() {
            let _ = std::fs::remove_dir_all(work.join(format!("setup-{}", i - 1)));
        }
        let fixture = set_up(args.posts, &work.join(format!("setup-{i}")))?;
        setups.push(fixture.setup_s);
        loads.push(fixture.docs as f64 / fixture.load_s);
        last = Some(fixture);
    }
    let fixture = last.ok_or("no set-up ran")?;
    println!(
        "# docs={} setups={SETUPS} setup_s={:?} load_docs_per_s={:?}",
        fixture.docs, setups, loads
    );
    Ok((fixture, setups, loads))
}

/// The workload's inputs, all derived from `--seed`.
struct Inputs {
    pool: QueryPool,
    stream: Rng64,
    churn: ChurnGen,
}

fn inputs(args: &Args, fixture: &Fixture) -> Inputs {
    let rng = Rng64::seeded(args.seed);
    let pool = QueryPool::generate(&fixture.world, POOL, &mut rng.fork(1));
    println!(
        "# query_pool={} mean_postings_per_query={:.1}",
        pool.queries.len(),
        pool.mean_postings(&fixture.service)
    );
    Inputs {
        pool,
        stream: rng.fork(2),
        churn: ChurnGen::new(&fixture.world, rng.fork(3)),
    }
}

/// One untimed pass over the query pool, then the workload's timed
/// phase.
fn run_workload(
    args: &Args,
    service: &mut ShardedLiveService,
    world: &World,
    inputs: &mut Inputs,
) -> Phase {
    // The warm-up draws from a stream no timed phase forks.
    closed_queries(
        &service.reader(),
        &inputs.pool,
        &inputs.stream.fork(u64::MAX),
        Instant::now() + Duration::from_secs(3_600),
        inputs.pool.queries.len().div_ceil(QUERY_CLIENTS),
    );
    let run = Duration::from_secs_f64(args.seconds);
    match args.workload {
        Workload::QueryUncached => closed_queries(
            &service.reader(),
            &inputs.pool,
            &inputs.stream,
            Instant::now() + run,
            usize::MAX,
        ),
        Workload::IngestChurn => alternating(
            service,
            world,
            &mut inputs.churn,
            &inputs.pool,
            &inputs.stream,
            run,
        ),
    }
}

fn timed_run(args: &Args, work: &Path) -> Result<Report, String> {
    let (fixture, setups, loads) = repeated_set_up(args, work)?;
    let mut inputs = inputs(args, &fixture);
    let Fixture {
        world,
        seed,
        load,
        mut service,
        ..
    } = fixture;
    let mut phase = run_workload(args, &mut service, &world, &mut inputs);
    if args.workload == Workload::QueryUncached {
        let far = Instant::now() + Duration::from_secs(3_600);
        phase.merge(closed_commits(
            &mut service,
            &world,
            &mut inputs.churn,
            far,
            SIDE_COMMITS,
        ));
    }
    let mut tally = std::mem::take(&mut phase.tally);

    // The live service's answers, kept so it can be stopped before the
    // restart: memory then peaks as a real restart would.
    let live = LiveAnswers::capture(&service, &seed, &inputs.pool, &mut tally);
    drop(service);
    let dir = work.join(format!("setup-{}", SETUPS - 1));
    let t_recover = Instant::now();
    let (recovered, _) =
        ShardedLiveService::recover(&seed, SHARDS, &dir).map_err(|e| e.to_string())?;
    let recover_s = t_recover.elapsed().as_secs_f64();
    let rss_peak_mb = rss_peak_mb();
    live.check_recovered(&recovered, &mut tally);
    drop(recovered);

    // The unsharded reference (the seed engine fed the same deltas),
    // built after the peak-memory reading.
    let mut flat = seed.clone();
    flat.apply_deltas(load.iter());
    for (pick, hits) in &phase.samples {
        let terms = &inputs.pool.queries[*pick];
        tally.check(same_hits(hits, &flat.query(terms, K)), || {
            format!("timed query {terms:?} differs from the unsharded engine")
        });
    }
    for batch in &phase.committed {
        flat.apply_deltas(batch.iter());
    }
    live.check_unsharded(&flat, &mut tally);
    drop(flat);

    let queries = phase.query_ms.len();
    let commits = phase.commit_ms.len();
    println!(
        "# samples: queries={queries} commits={commits} deltas={} attempted={} failed={}",
        phase.deltas_acked, tally.attempted, tally.failed
    );
    let commit_s: f64 = phase.commit_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("load_docs_per_s", median(&loads), "1/s"),
        ("query_qps", queries as f64 / phase.query_wall_s, "1/s"),
        ("query_p50_ms", median(&phase.query_ms), "ms"),
        ("query_p99_ms", quantile(&phase.query_ms, 0.99), "ms"),
        (
            "ingest_deltas_per_s",
            phase.deltas_acked as f64 / commit_s,
            "1/s",
        ),
        ("commit_p50_ms", median(&phase.commit_ms), "ms"),
        ("commit_p90_ms", quantile(&phase.commit_ms, 0.9), "ms"),
        ("recover_s", recover_s, "s"),
        ("rss_peak_mb", rss_peak_mb, "MiB"),
    ];
    Ok(Report { tally, metrics })
}

/// The live service's rankings of the probe queries (already checked
/// against the unpruned scorer) and its sizes, for comparison with the
/// recovered service and the unsharded engine.
struct LiveAnswers {
    probes: Vec<(Vec<String>, Vec<SearchHit>)>,
    doc_count: usize,
    seqs: Vec<u64>,
}

impl LiveAnswers {
    fn capture(
        live: &ShardedLiveService,
        seed: &SearchEngine,
        pool: &QueryPool,
        tally: &mut Tally,
    ) -> LiveAnswers {
        let reader = live.reader();
        let pin = reader.pin();
        let engines: Vec<&SearchEngine> =
            (0..live.shards()).map(|i| live.shard_engine(i)).collect();
        let mut probes = Vec::with_capacity(PROBES);
        for terms in pool.queries.iter().take(PROBES) {
            let served = reader.query_uncached(&pin, terms, K);
            let unpruned = scatter_query_unpruned(
                &engines,
                terms,
                K,
                |s| reader.static_score(s),
                seed.weights(),
            );
            tally.check(same_hits(&served, &unpruned), || {
                format!("sharded {terms:?} differs from scatter_query_unpruned")
            });
            probes.push((terms.clone(), served));
        }
        LiveAnswers {
            probes,
            doc_count: live.doc_count(),
            seqs: live.seqs(),
        }
    }

    fn check_recovered(&self, recovered: &ShardedLiveService, tally: &mut Tally) {
        let reader = recovered.reader();
        for (terms, served) in &self.probes {
            tally.check(same_hits(served, &reader.query(terms, K)), || {
                format!("recovered service ranks {terms:?} differently")
            });
        }
        tally.check(recovered.doc_count() == self.doc_count, || {
            format!(
                "recovered doc_count {} != live {}",
                recovered.doc_count(),
                self.doc_count
            )
        });
        tally.check(recovered.seqs() == self.seqs, || {
            format!(
                "recovered seqs {:?} != live {:?}",
                recovered.seqs(),
                self.seqs
            )
        });
    }

    fn check_unsharded(&self, flat: &SearchEngine, tally: &mut Tally) {
        for (terms, served) in &self.probes {
            tally.check(same_hits(served, &flat.query(terms, K)), || {
                format!("sharded {terms:?} differs from the unsharded engine")
            });
        }
    }
}

/// The traced run: the workload once more (for the load generator's
/// lateness and the history the copy must match), then a replay of
/// queries and commits through [`Mirror`] with a span around each
/// layer's call, beside the same operations on the service.
fn traced_run(args: &Args, work: &Path, root: &Path) -> Result<Report, String> {
    let service_dir = work.join("service");
    let fixture = set_up(args.posts, &service_dir)?;
    let mut inputs = inputs(args, &fixture);
    let Fixture {
        world,
        seed,
        load,
        service,
        ..
    } = fixture;
    let registry = Registry::new();
    let mut service = service.with_metrics(ShardMetrics::new(&registry, SHARDS));
    let mut phase = run_workload(args, &mut service, &world, &mut inputs);
    let mut tally = std::mem::take(&mut phase.tally);

    let mut mirror = Mirror::start(&seed, SHARDS, &work.join("mirror"))?;
    let history: Vec<CorpusDelta> = load
        .iter()
        .chain(phase.committed.iter().flatten())
        .cloned()
        .collect();
    let mut untimed = Tracer::new();
    for burst in history.chunks(CATCH_UP_BURST) {
        mirror.commit(burst, &mut untimed, 0)?;
    }
    drop(history);
    mirror.reset_counts();

    let mut tracer = Tracer::new();
    let mut untraced_ns = 0.0;
    let mut traced_ns = 0.0;
    let mut request = 0u64;
    let mut stream = inputs.stream.fork(7);

    // Queries: the service's uncached plan, then the decomposed plan.
    let reader = service.reader();
    for _ in 0..TRACE_QUERIES {
        request += 1;
        let terms = &inputs.pool.queries[inputs.pool.uniform_pick(&mut stream)];
        let span = tracer.enter("shard.pin", request);
        let pin = reader.pin();
        tracer.exit(span, 1);
        let t = Instant::now();
        let served = reader.query_uncached(&pin, terms, K);
        untraced_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let decomposed = mirror.query(terms, &mut tracer, request);
        traced_ns += t.elapsed().as_nanos() as f64;
        tally.check(same_hits(&served, &decomposed), || {
            format!("decomposed query {terms:?} differs from the service")
        });
    }

    // Commits. The service commits on a thread of its own while this
    // thread sends repeated (zipf) queries through its query cache, so
    // cached ≡ uncached on one pin is checked while churn runs; then the
    // copy commits the same batch under spans.
    let cache_registry = Registry::new();
    let cache = CacheMetrics::new(&cache_registry);
    let mut service =
        service.with_query_cache(QueryCache::new(CACHE_CAPACITY).with_metrics(cache.clone()));
    let reader = service.reader();
    for _ in 0..TRACE_COMMITS {
        request += 1;
        let batch = inputs.churn.next_batch(&world);
        let (outcome, commit_ns) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let t = Instant::now();
                let outcome = service.ingest_batch(&batch);
                (outcome, t.elapsed().as_nanos() as f64)
            });
            for j in 0..TRACE_CACHED_PER_COMMIT {
                request += 1;
                let terms = &inputs.pool.queries[inputs.pool.zipf_pick(&mut stream)];
                let span = tracer.enter("shard.pin", request);
                let pin = reader.pin();
                tracer.exit(span, 1);
                let hits_before = cache.hits();
                let span = tracer.enter("cache.query", request);
                let hits = reader.query_pinned(&pin, terms, K);
                tracer.exit(span, 0);
                tracer.set_count(span, cache.hits() - hits_before);
                if j % 4 == 0 {
                    let fresh = reader.query_uncached(&pin, terms, K);
                    tally.check(same_hits(&hits, &fresh), || {
                        format!("cached {terms:?} differs from query_uncached on one pin")
                    });
                }
            }
            writer.join().expect("commit thread panicked")
        });
        untraced_ns += commit_ns;
        tally.check(outcome.is_ok(), || {
            format!("churn commit failed: {outcome:?}")
        });
        let t = Instant::now();
        mirror.commit(&batch, &mut tracer, request)?;
        traced_ns += t.elapsed().as_nanos() as f64;
    }

    // The copy must match the service: journals byte for byte,
    // rankings bit for bit.
    for (shard, copy) in mirror.journal_paths.iter().enumerate() {
        let live = std::fs::read(ShardedLiveService::shard_journal_path(&service_dir, shard));
        let copy = std::fs::read(copy);
        tally.check(matches!((&live, &copy), (Ok(a), Ok(b)) if a == b), || {
            format!("shard {shard} journal differs from the decomposed commit path")
        });
    }
    let pin = reader.pin();
    for terms in inputs.pool.queries.iter().take(PROBES) {
        let decomposed = mirror.query(terms, &mut untimed, 0);
        tally.check(
            same_hits(&reader.query_uncached(&pin, terms, K), &decomposed),
            || format!("decomposed query {terms:?} differs from the service after churn"),
        );
    }
    drop(pin);

    for path in &mirror.journal_paths {
        let span = tracer.enter("journal.replay", 0);
        let replay = obs_live::DeltaJournal::replay_path(path);
        tracer.exit(span, replay.as_ref().map_or(0, |r| r.records.len() as u64));
        tally.check(replay.is_ok(), || {
            format!("replaying {} failed", path.display())
        });
    }

    let spans = root.join(format!("spans-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!(
        "# spans={} written to {}",
        tracer.spans().len(),
        spans.display()
    );
    for (name, self_ns, calls) in tracer.self_time() {
        println!(
            "# self_time {name}: {:.3} ms over {calls} calls",
            self_ns as f64 / 1e6
        );
    }
    print_instruments(&registry);
    print_instruments(&cache_registry);

    let us = |name: &str| median(&tracer.durations(name)) / 1e3;
    let partials = tracer.per_request("engine.partial");
    let partial_ns: Vec<f64> = partials.iter().map(|p| p.0).collect();
    let postings: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "scatter.gather")
        .map(|s| s.count as f64)
        .collect();
    let merge_inputs: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "scatter.merge")
        .map(|s| s.count as f64)
        .collect();
    let (hit_ns, miss_ns): (Vec<_>, Vec<_>) = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "cache.query")
        .partition(|s| s.count > 0);
    let as_ns = |v: Vec<&trace::Span>| -> Vec<f64> {
        v.iter().map(|s| (s.end_ns - s.start_ns) as f64).collect()
    };
    let (hit_ns, miss_ns) = (as_ns(hit_ns), as_ns(miss_ns));
    let lookups = cache.hits() + cache.misses();
    let partial_total: f64 = partial_ns.iter().sum();
    let postings_total: f64 = postings.iter().sum();
    let fanout: Vec<f64> = mirror.fanout.iter().map(|&f| f as f64).collect();
    println!(
        "# bases: queries={} commits={} engine.ns_per_posting = {:.0} ns / {:.0} postings; \
         cache.hit_ratio = {} hits / {lookups} lookups; cache hit samples={} miss samples={}; \
         journal.bytes_per_delta = {} bytes / {} records; trace.overhead_ratio = {:.0} ns / {:.0} ns",
        partials.len(),
        fanout.len(),
        partial_total,
        postings_total,
        cache.hits(),
        hit_ns.len(),
        miss_ns.len(),
        mirror.bytes_appended,
        mirror.records_appended,
        traced_ns,
        untraced_ns
    );
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("scatter.gather_us", us("scatter.gather"), "us"),
        ("scatter.merge_us", us("scatter.merge"), "us"),
        ("scatter.merge_input", mean(&merge_inputs), "count"),
        ("engine.partial_us", median(&partial_ns) / 1e3, "us"),
        ("engine.postings_per_query", mean(&postings), "count"),
        (
            "engine.partials_per_query",
            mean(&partials.iter().map(|p| p.1 as f64).collect::<Vec<_>>()),
            "count",
        ),
        (
            "engine.ns_per_posting",
            partial_total / postings_total.max(1.0),
            "ns",
        ),
        ("blend.reblend_us", us("blend.reblend"), "us"),
        ("shard.pin_ns", median(&tracer.durations("shard.pin")), "ns"),
        ("shard.route_us", us("shard.route"), "us"),
        ("shard.fanout", mean(&fanout), "count"),
        (
            "cache.hit_ratio",
            cache.hits() as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        ("cache.hit_us", median(&hit_ns) / 1e3, "us"),
        ("cache.miss_us", median(&miss_ns) / 1e3, "us"),
        ("cache.evictions", cache.evictions() as f64, "count"),
        (
            "journal.append_sync_ms",
            us("journal.append_sync") / 1e3,
            "ms",
        ),
        (
            "journal.bytes_per_delta",
            mirror.bytes_appended as f64 / mirror.records_appended.max(1) as f64,
            "bytes",
        ),
        (
            "journal.replay_ms",
            tracer.durations("journal.replay").iter().sum::<f64>() / 1e6,
            "ms",
        ),
        ("snapshot.apply_ms", us("snapshot.apply") / 1e3, "ms"),
        ("snapshot.publish_us", us("snapshot.publish"), "us"),
        (
            "trace.overhead_ratio",
            traced_ns / untraced_ns.max(1.0),
            "ratio",
        ),
        ("failed_ratio", failed_ratio, "ratio"),
    ];
    Ok(Report { tally, metrics })
}

/// Prints the production instruments recorded during the traced run,
/// beside the spans.
fn print_instruments(registry: &Registry) {
    for m in registry.snapshot() {
        let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let series = format!("{}{{{}}}", m.name, labels.join(","));
        match m.value {
            MetricValue::Counter(v) => println!("# instrument {series} = {v}"),
            MetricValue::Gauge(v) => println!("# instrument {series} = {v}"),
            MetricValue::Histogram(h) if h.count() > 0 => println!(
                "# instrument {series}: count={} p50={} p99={}",
                h.count(),
                h.p50(),
                h.p99()
            ),
            MetricValue::Histogram(_) => {}
        }
    }
}
