//! The three workloads. Each has a set-up (timed as `setup_s`), an op,
//! and a traced op that adds the per-layer replay.

use crate::corpus::{paper_corpus, Family, Parsed, Source, TABLE};
use crate::drive::Outcome;
use crate::gen::{EditGen, Request, RequestGen};
use crate::layers::{solved_keys, OpTrace, Replayer};
use crate::oracle::{check_report, Check};
use relaxed_programs::core::cache;
use relaxed_programs::core::service::{service_metrics, service_status, shutdown_service};
use relaxed_programs::core::{Service, ServiceOptions};
use relaxed_programs::{CachePolicy, Config, CorpusReport, Verifier};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `min(2, nproc)`: the corpus workers and the daemon's fleet size.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The verdict check every op ends with: a wrong verdict is fatal, an
/// undecided one a failure.
fn judge(families: &[Family], report: &CorpusReport) -> Result<Outcome, String> {
    match check_report(&TABLE, families, report) {
        Ok(Check::Correct) => Ok(Outcome::Ok),
        Ok(Check::Failed(why)) => {
            eprintln!("relbench: failed op: {why}");
            Ok(Outcome::Failed)
        }
        Err(wrong) => Err(format!("wrong verdict: {}", wrong.0)),
    }
}

fn parse_all(sources: &[Source]) -> Vec<Parsed> {
    sources
        .iter()
        .map(|s| s.parse().expect("generated sources parse"))
        .collect()
}

fn named(
    parsed: &[Parsed],
) -> Vec<(
    &'static str,
    relaxed_programs::lang::Program,
    relaxed_programs::Spec,
)> {
    parsed
        .iter()
        .map(|p| (p.name, p.program.clone(), p.spec.clone()))
        .collect()
}

// ---------------------------------------------------------------------
// cold_corpus
// ---------------------------------------------------------------------

/// The six paper programs, verified by a fresh session per op.
pub struct Cold {
    families: Vec<Family>,
    corpus: Vec<(
        &'static str,
        relaxed_programs::lang::Program,
        relaxed_programs::Spec,
    )>,
    replayer: Replayer,
}

impl Cold {
    /// Parses the corpus and runs one untimed op, so lazy set-up and
    /// page faults land in `setup_s`.
    pub fn setup() -> Result<Cold, String> {
        let parsed = parse_all(&paper_corpus());
        let cold = Cold {
            families: parsed.iter().map(|p| p.family).collect(),
            corpus: named(&parsed),
            replayer: Replayer::new(Self::session().config().discharge_config()),
        };
        cold.op()?;
        Ok(cold)
    }

    fn session() -> Verifier {
        Verifier::builder().workers(workers()).build()
    }

    fn run(&self) -> CorpusReport {
        Self::session().check_corpus_named(&self.corpus)
    }

    pub fn op(&self) -> Result<Outcome, String> {
        judge(&self.families, &self.run())
    }

    pub fn traced_op(&mut self) -> Result<(Outcome, OpTrace), String> {
        let started = Instant::now();
        let mut trace = OpTrace::default();
        let report = trace.time("api.corpus_ms", || self.run());
        let outcome = judge(&self.families, &report)?;
        self.replayer.reset_shadow();
        let sources = paper_corpus();
        let live: Vec<&Source> = sources.iter().collect();
        self.replayer.replay(&mut trace, &live, None, false)?;
        trace.add(
            "engine.redundant_solves",
            report.engine.cache_misses as f64 - trace.get("engine.cache_misses"),
        );
        trace.derive(started.elapsed().as_secs_f64() * 1e3);
        Ok((outcome, trace))
    }
}

// ---------------------------------------------------------------------
// edit_loop
// ---------------------------------------------------------------------

/// One long-lived persistent session re-verifying the corpus after each
/// seeded edit.
pub struct EditLoop {
    session: Verifier,
    store: PathBuf,
    gen: EditGen,
    /// The corpus as last verified, slot by slot.
    current: Vec<Parsed>,
    corpus: Vec<(
        &'static str,
        relaxed_programs::lang::Program,
        relaxed_programs::Spec,
    )>,
    replayer: Replayer,
    pub reverts: usize,
    pub new_edits: usize,
}

impl EditLoop {
    /// Builds the session over an empty store in `dir` and seeds the
    /// store with one cold pass.
    pub fn setup(dir: &Path, seed: u64) -> Result<EditLoop, String> {
        let store = dir.join("verdicts.jsonl");
        let session = Verifier::builder().cache_file(&store).build();
        let current = parse_all(&paper_corpus());
        let corpus = named(&current);
        let families: Vec<Family> = current.iter().map(|p| p.family).collect();
        if judge(&families, &session.check_corpus_named(&corpus))? != Outcome::Ok {
            return Err("the seeding pass failed".to_string());
        }
        session
            .persist()
            .map_err(|e| format!("seeding the store: {e}"))?;
        let mut replayer = Replayer::new(session.config().discharge_config());
        replayer.prime(&current);
        Ok(EditLoop {
            session,
            store,
            gen: EditGen::new(seed),
            current,
            corpus,
            replayer,
            reverts: 0,
            new_edits: 0,
        })
    }

    /// Takes the next edit: parses it and puts it in its slot.
    fn apply_next(&mut self) -> Result<Source, String> {
        let op = self.gen.next().expect("the edit stream is endless");
        if op.is_revert() {
            self.reverts += 1;
        } else {
            self.new_edits += 1;
        }
        let source = op.source();
        let parsed = source.parse()?;
        let slot = self
            .current
            .iter()
            .position(|p| p.name == parsed.name)
            .expect("edits target corpus slots");
        self.corpus[slot] = (parsed.name, parsed.program.clone(), parsed.spec.clone());
        self.current[slot] = parsed;
        Ok(source)
    }

    fn families(&self) -> Vec<Family> {
        self.current.iter().map(|p| p.family).collect()
    }

    fn append(&self) -> Result<(), String> {
        self.session
            .engine()
            .append_pending()
            .map(|_| ())
            .map_err(|e| format!("appending to the store: {e}"))
    }

    pub fn op(&mut self) -> Result<Outcome, String> {
        self.apply_next()?;
        let report = self.session.check_corpus_named(&self.corpus);
        let outcome = judge(&self.families(), &report)?;
        self.append()?;
        Ok(outcome)
    }

    pub fn traced_op(&mut self) -> Result<(Outcome, OpTrace), String> {
        let started = Instant::now();
        let mut trace = OpTrace::default();
        let source = trace.time("op.apply_ms", || self.apply_next())?;
        let report = trace.time("api.corpus_ms", || {
            self.session.check_corpus_named(&self.corpus)
        });
        let outcome = judge(&self.families(), &report)?;
        trace.time("cache.persist_ms", || self.append())?;
        // Replay: the depmap decision over the whole corpus, then the
        // live program through the layers.
        let live = self.replayer.depmap_decide(&mut trace, &self.current);
        let sources: Vec<&Source> = if live.contains(&source.name) {
            vec![&source]
        } else {
            Vec::new()
        };
        self.replayer
            .replay(&mut trace, &sources, Some(&solved_keys(&report)), true)?;
        let fingerprint = cache::fingerprint(&self.session.config().discharge_config());
        let loaded = trace.time("cache.load_ms", || cache::load(&self.store, &fingerprint));
        trace.add("cache.entries", loaded.entries.len() as f64);
        trace.add("cache.bytes", file_len(&self.store));
        trace.add(
            "engine.redundant_solves",
            report.engine.cache_misses as f64 - trace.get("engine.cache_misses"),
        );
        trace.derive(started.elapsed().as_secs_f64() * 1e3);
        Ok((outcome, trace))
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

// ---------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------

/// An in-process daemon with a warm fleet over a resident store, and a
/// client session that submits one program per request.
pub struct ServiceMix {
    addr: String,
    daemon: Option<std::thread::JoinHandle<u64>>,
    client: Verifier,
    store: PathBuf,
    gen: Mutex<RequestGen>,
    replayer: Replayer,
    /// Per request kind: how many were issued.
    pub kinds: Mutex<Vec<(&'static str, usize)>>,
    /// Requests answered without a solver run anywhere.
    pub resident_hits: Mutex<usize>,
}

impl ServiceMix {
    /// Seeds the store with one cold pass, binds the daemon (which spawns
    /// its fleet and loads the store) and waits until it answers.
    pub fn setup(dir: &Path, seed: u64) -> Result<ServiceMix, String> {
        let store = dir.join("verdicts.jsonl");
        let parsed = parse_all(&paper_corpus());
        {
            let seeding = Verifier::builder().cache_file(&store).build();
            let families: Vec<Family> = parsed.iter().map(|p| p.family).collect();
            if judge(&families, &seeding.check_corpus_named(&named(&parsed)))? != Outcome::Ok {
                return Err("the seeding pass failed".to_string());
            }
            seeding
                .persist()
                .map_err(|e| format!("seeding the store: {e}"))?;
        }
        let worker = std::env::current_exe()
            .map_err(|e| format!("locating the benchmark binary: {e}"))?
            .with_file_name(format!("relaxed-shardd{}", std::env::consts::EXE_SUFFIX));
        let config = Config {
            cache: CachePolicy::Persistent {
                path: store.clone(),
            },
            shard_worker: Some(worker),
            ..Config::default()
        };
        let service = Service::bind(ServiceOptions {
            addr: "127.0.0.1:0".to_string(),
            fleet: workers(),
            config: config.clone(),
            ..ServiceOptions::default()
        })?;
        let addr = service.local_addr();
        let daemon = std::thread::spawn(move || service.run());
        service_status(&addr, Duration::from_secs(10))?;
        let client = Verifier::builder().service(addr.clone()).build();
        let mut replayer = Replayer::new(config.discharge_config());
        replayer.prime(&parsed);
        Ok(ServiceMix {
            addr,
            daemon: Some(daemon),
            client,
            store,
            gen: Mutex::new(RequestGen::new(seed)),
            replayer,
            kinds: Mutex::new(Vec::new()),
            resident_hits: Mutex::new(0),
        })
    }

    /// The next request of the seeded mix.
    pub fn next_request(&self) -> Request {
        let request = self.gen.lock().expect("generator").next().expect("endless");
        let mut kinds = self.kinds.lock().expect("kinds");
        match kinds.iter_mut().find(|(kind, _)| *kind == request.kind()) {
            Some((_, n)) => *n += 1,
            None => kinds.push((request.kind(), 1)),
        }
        request
    }

    fn submit(&self, source: &Source) -> Result<(Outcome, CorpusReport), String> {
        let parsed = source.parse()?;
        let report = self
            .client
            .check_corpus_named(&[(parsed.name, parsed.program, parsed.spec)]);
        let outcome = judge(&[parsed.family], &report)?;
        if outcome == Outcome::Ok && report.engine.cache_misses == 0 {
            *self.resident_hits.lock().expect("hits") += 1;
        }
        Ok((outcome, report))
    }

    pub fn op(&self, request: &Request) -> Result<Outcome, String> {
        self.submit(&request.source()).map(|(outcome, _)| outcome)
    }

    pub fn traced_op(&mut self) -> Result<(Outcome, OpTrace), String> {
        let started = Instant::now();
        let mut trace = OpTrace::default();
        let source = self.next_request().source();
        let (outcome, report) = trace.time("api.corpus_ms", || self.submit(&source))?;
        trace.add("service.request_ms", trace.get("api.corpus_ms"));
        let solved = solved_keys(&report);
        self.replayer
            .replay(&mut trace, &[&source], Some(&solved), false)?;
        trace.add(
            "engine.redundant_solves",
            report.engine.cache_misses as f64 - trace.get("engine.cache_misses"),
        );
        trace.derive(started.elapsed().as_secs_f64() * 1e3);
        Ok((outcome, trace))
    }

    /// The daemon's counters, from its metrics frame, and the store's
    /// load time and size.
    pub fn counters(&self, trace: &mut OpTrace) -> Result<(), String> {
        let text = service_metrics(&self.addr, Duration::from_secs(10))?;
        for (metric, name) in [
            ("relaxed_requests_served_total", "service.served"),
            ("relaxed_requests_rejected_total", "service.rejected"),
            ("relaxed_queue_depth_peak", "service.queue_peak"),
        ] {
            trace.values.insert(name, prometheus_value(&text, metric));
        }
        let fingerprint = cache::fingerprint(&self.client.config().discharge_config());
        let loaded = trace.time("cache.load_ms", || cache::load(&self.store, &fingerprint));
        trace
            .values
            .insert("cache.entries", loaded.entries.len() as f64);
        trace.values.insert("cache.bytes", file_len(&self.store));
        Ok(())
    }

    /// Drains the daemon and waits for it (and its fleet) to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        shutdown_service(&self.addr, Duration::from_secs(60))?;
        daemon
            .join()
            .map(|_| ())
            .map_err(|_| "the daemon thread panicked".to_string())
    }
}

impl Drop for ServiceMix {
    /// A run that aborts still stops the daemon and its fleet.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The value of an unlabelled Prometheus sample (`0` when absent).
fn prometheus_value(text: &str, metric: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, value) = line.split_once(' ')?;
            (name == metric)
                .then(|| value.trim().parse().ok())
                .flatten()
        })
        .unwrap_or(0.0)
}
