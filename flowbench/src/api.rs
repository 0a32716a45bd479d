//! The benchmark's only coupling to the repository: every call into a
//! crate's public functions goes through this file, behind types the rest
//! of the benchmark owns. A signature change in the flow API (say, one
//! `run_flow` over a single cache type) is an edit here and nowhere else.

use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::specs::AdcSpec;
use adc_serve::http;
use adc_serve::protocol::{self, ResultMemo, SubmitRequest};
use adc_serve::{FlowServer, ServerConfig};
use adc_spice::dc::{dc_operating_point_with, DcDamping, DcOptions, DcWorkspace};
use adc_spice::netlist::{Circuit, NodeId};
use adc_spice::op::OperatingPoint;
use adc_synth::chain::{ChainEvaluator, ChainOptions};
use adc_synth::evaluator::{EvalOutcome, Evaluator};
use adc_synth::hybrid::{BenchSetup, BenchTuner, HybridOptions, HybridOtaEvaluator};
use adc_synth::tran_chain::{TranChainEvaluator, TranChainOptions, TranChainSetup};
use adc_synth::{SynthConfig, SynthResult};
use adc_topopt::cache::{BlockCache, CachePolicy, SharedCache};
use adc_topopt::enumerate::{enumerate_candidates, Candidate};
use adc_topopt::executor::ExecutorOptions;
use adc_topopt::flow::{
    run_flow, synthesize_ota, FlowOptions, FlowRequest, MdacBlock, RunStats, SynthesisRun,
    TemplateKind,
};
use adc_topopt::optimize::optimize_topology;
use adc_topopt::verify::{
    build_candidate_testbench, build_tran_setup, verify_candidate, VerifyOptions,
};
use adc_topopt::wire::{
    cache_snapshot_restore, cache_snapshot_to_json, run_stats_from_json, JsonValue,
};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

/// SIMD kernel backend the numeric hot paths dispatch to.
pub fn simd_backend() -> &'static str {
    adc_numerics::simd::backend_name()
}

/// One flow request as the benchmark generates it: the paper's DATE'05
/// spec at `resolution`, the default synthesis budget under `seed`, and an
/// optional run budget (outside the cache key, inside the memo key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub resolution: u32,
    pub seed: u64,
    pub run_budget_ms: Option<u64>,
}

impl Job {
    pub fn new(resolution: u32, seed: u64) -> Job {
        Job {
            resolution,
            seed,
            run_budget_ms: None,
        }
    }

    fn submit(&self) -> SubmitRequest {
        SubmitRequest {
            spec: AdcSpec::date05(self.resolution),
            cfg: SynthConfig {
                seed: self.seed,
                ..SynthConfig::default()
            },
            options: FlowOptions {
                run_budget: self.run_budget_ms.map(Duration::from_millis),
                ..FlowOptions::default()
            },
        }
    }

    /// The canonical submission body.
    pub fn body(&self) -> String {
        self.submit().canonical().render()
    }
}

/// Exact per-run counters of one flow run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub blocks: usize,
    pub hits: usize,
    pub seeded: usize,
    pub cold: usize,
    pub retargeted: usize,
    pub evaluations: usize,
    pub failed: usize,
}

impl Counts {
    fn of(stats: &RunStats) -> Counts {
        Counts {
            blocks: stats.blocks,
            hits: stats.cache_hits,
            seeded: stats.cache_seeded,
            cold: stats.cold,
            retargeted: stats.retargeted,
            evaluations: stats.evaluations_spent,
            failed: stats.failed,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.blocks += other.blocks;
        self.hits += other.hits;
        self.seeded += other.seeded;
        self.cold += other.cold;
        self.retargeted += other.retargeted;
        self.evaluations += other.evaluations;
        self.failed += other.failed;
    }
}

/// The analytic (designer-model) winner at `resolution`, e.g. `"4-3-2"`.
pub fn analytic_winner(resolution: u32) -> String {
    rank(resolution)
        .into_iter()
        .next()
        .expect("every supported resolution enumerates candidates")
}

/// The designer-model ranking at `resolution`, best first.
pub fn rank(resolution: u32) -> Vec<String> {
    let report = optimize_topology(
        &AdcSpec::date05(resolution),
        &PowerModelParams::calibrated(),
    );
    report
        .rows
        .iter()
        .map(|row| row.candidate.to_string())
        .collect()
}

/// A flow run's synthesized blocks, kept for verification and layer probes.
#[derive(Clone)]
pub struct Blocks {
    resolution: u32,
    blocks: Vec<MdacBlock>,
}

/// A finished in-process flow run.
pub struct FlowRun {
    pub counts: Counts,
    pub blocks: Blocks,
}

impl FlowRun {
    fn of(resolution: u32, run: SynthesisRun) -> FlowRun {
        FlowRun {
            counts: Counts::of(&run.stats),
            blocks: Blocks {
                resolution,
                blocks: run.blocks,
            },
        }
    }
}

/// The serial batch oracle of one request: `run_flow` in the serial mode
/// with no cache, rendered through the server's own payload renderer.
pub struct Oracle {
    /// The rendered deterministic `result` subtree.
    pub result: String,
    pub run: FlowRun,
}

pub fn oracle(job: &Job, verify: bool) -> Oracle {
    let req = job.submit();
    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, protocol::BACKEND_BITS);
    let run = run_flow(
        &FlowRequest::new(&req.spec, &candidates, &params, &req.cfg).serial(),
        None,
    );
    let payload = protocol::render_payload(&req, &candidates, &run, verify);
    let result = parse_payload(&payload)
        .expect("the payload renderer emits a parseable payload")
        .result;
    Oracle {
        result,
        run: FlowRun::of(job.resolution, run),
    }
}

/// One request through the parallel executor with no cache: `threads`
/// `None` is the executor's default (one per core).
pub fn run_flow_job(job: &Job, threads: Option<usize>) -> FlowRun {
    let req = job.submit();
    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, protocol::BACKEND_BITS);
    let exec = match threads {
        Some(n) => ExecutorOptions::with_threads(n),
        None => ExecutorOptions::default(),
    };
    let run = run_flow(
        &FlowRequest::new(&req.spec, &candidates, &params, &req.cfg)
            .with_options(req.options)
            .with_executor(exec),
        None,
    );
    FlowRun::of(job.resolution, run)
}

/// What a served (or in-process rendered) payload says.
pub struct Payload {
    /// The rendered deterministic `result` subtree.
    pub result: String,
    pub counts: Counts,
    /// Best-ranked candidate, e.g. `"4-3-2"`.
    pub winner: String,
    pub survivors: Vec<String>,
}

/// Splits a payload into the parts the benchmark checks.
pub fn parse_payload(text: &str) -> Result<Payload, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let result = doc.get("result").ok_or("payload without result")?;
    let stats = doc.get("stats").ok_or("payload without stats")?;
    let stats = run_stats_from_json(stats).map_err(|e| e.to_string())?;
    let winner = match result.get("ranked") {
        Some(JsonValue::Arr(rows)) => match rows.first().and_then(|row| row.get("candidate")) {
            Some(JsonValue::Str(name)) => name.clone(),
            _ => return Err("ranking without a candidate".to_string()),
        },
        _ => return Err("result without ranking".to_string()),
    };
    let survivors = match result.get("survivors") {
        Some(JsonValue::Arr(names)) => names
            .iter()
            .filter_map(|v| match v {
                JsonValue::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => return Err("result without survivors".to_string()),
    };
    Ok(Payload {
        result: result.render(),
        counts: Counts::of(&stats),
        winner,
        survivors,
    })
}

/// A parsed wire document.
pub struct Doc(JsonValue);

impl Doc {
    pub fn parse(text: &str) -> Result<Doc, String> {
        JsonValue::parse(text).map(Doc).map_err(|e| e.to_string())
    }

    pub fn render(&self) -> String {
        self.0.render()
    }

    /// The number at `path` (object keys), if there is one.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        match self.at(path)? {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string at `path` (object keys), if there is one.
    pub fn str(&self, path: &[&str]) -> Option<&str> {
        match self.at(path)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean at `path` (object keys), if there is one.
    pub fn boolean(&self, path: &[&str]) -> Option<bool> {
        match self.at(path)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Keys of the object at `path`.
    pub fn keys(&self, path: &[&str]) -> Vec<String> {
        match self.at(path) {
            Some(JsonValue::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }

    /// Elements of the array at `path`.
    pub fn items(&self, path: &[&str]) -> Vec<Doc> {
        match self.at(path) {
            Some(JsonValue::Arr(items)) => items.iter().cloned().map(Doc).collect(),
            _ => Vec::new(),
        }
    }

    fn at(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(&self.0, |v, key| v.get(key))
    }
}

/// `run_id` of a `202` submit reply.
pub fn parse_run_id(text: &str) -> Option<u64> {
    match JsonValue::parse(text).ok()?.get("run_id") {
        Some(JsonValue::Num(id)) if *id >= 0.0 => Some(*id as u64),
        _ => None,
    }
}

/// Session state of a poll reply (`"Completed"`, `"Failed"`, ...).
pub fn parse_state(text: &str) -> Option<String> {
    match JsonValue::parse(text).ok()?.get("state") {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Server settings the workloads vary. The cache policy is always
/// `Reproducible`, so served results stay comparable with the oracle.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    pub workers: usize,
    pub max_inflight: usize,
    pub capacity: usize,
    pub verify: bool,
    pub snapshot: Option<PathBuf>,
}

/// Cumulative counters of a server's shared cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub lookups: usize,
    pub insertions: usize,
    pub entries: usize,
}

/// A running in-process flow server.
pub struct Server(FlowServer);

impl Server {
    pub fn start(opts: &ServerOpts) -> io::Result<Server> {
        FlowServer::start(ServerConfig {
            workers: opts.workers,
            max_inflight: opts.max_inflight,
            capacity: opts.capacity,
            cache_policy: CachePolicy::Reproducible,
            verify: opts.verify,
            snapshot: opts.snapshot.clone(),
            ..ServerConfig::default()
        })
        .map(Server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn cache(&self) -> CacheCounts {
        let stats = self.0.cache_stats();
        CacheCounts {
            lookups: stats.lookups,
            insertions: stats.insertions,
            entries: self.0.cache_len(),
        }
    }

    pub fn shed(&self) -> u64 {
        self.0.shed_count()
    }

    /// Stops the server and joins every thread it started.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A persistent keep-alive HTTP connection to the server.
pub struct Conn(http::Client);

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn(http::Client::new(addr))
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.0.request(method, path, body)
    }

    pub fn requests(&self) -> usize {
        self.0.requests()
    }

    pub fn connects(&self) -> usize {
        self.0.connects()
    }
}

/// An in-process shared cache plus result memo: the state a server worker
/// runs requests against.
pub struct WarmCache {
    cache: SharedCache,
    memo: ResultMemo,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache {
            cache: SharedCache::with_default_shards(CachePolicy::Reproducible),
            memo: ResultMemo::new(),
        }
    }
}

impl WarmCache {
    /// Runs `job` the way a server worker does (parallel executor, shared
    /// cache, result memo, verification on) and returns its counts and
    /// payload.
    pub fn run_memo(&self, job: &Job) -> (Counts, String) {
        let (run, payload) =
            protocol::run_and_render_memo(&job.submit(), &self.cache, true, &self.memo);
        (Counts::of(&run.stats), payload)
    }

    /// Runs `job` against the cache without the memo: rank, verify and
    /// render every time.
    pub fn run_rerank(&self, job: &Job) -> (Counts, String) {
        let (run, payload) = protocol::run_and_render(&job.submit(), &self.cache, true);
        (Counts::of(&run.stats), payload)
    }

    /// The cache as a snapshot document (the server's persistence format).
    pub fn snapshot(&self) -> String {
        cache_snapshot_to_json(&self.cache).render()
    }

    /// Restores a snapshot document into this cache; returns the entries
    /// loaded, or an error for an unparseable document.
    pub fn restore(&self, text: &str) -> Result<usize, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let load = cache_snapshot_restore(&self.cache, &doc);
        if load.dropped > 0 {
            return Err(format!("{} snapshot entries dropped", load.dropped));
        }
        Ok(load.loaded)
    }
}

/// Parses and elaborates a submission body, as the server's front door
/// does.
pub fn parse_submit(body: &str) -> Result<(), String> {
    let req = protocol::parse_submit(body).map_err(|e| e.to_string())?;
    protocol::elaborate(&req.spec)
}

/// The cross-resolution cache of the paper's sweep (`Aggressive`: exact
/// hits regardless of provenance, near hits seed warm starts).
pub struct SweepCache(BlockCache);

impl Default for SweepCache {
    fn default() -> Self {
        SweepCache(BlockCache::new(CachePolicy::Aggressive))
    }
}

impl SweepCache {
    pub fn counts(&self) -> CacheCounts {
        let stats = self.0.stats();
        CacheCounts {
            lookups: stats.lookups,
            insertions: stats.insertions,
            entries: self.0.len(),
        }
    }
}

/// One resolution step of the paper's sweep: every enumerated candidate's
/// distinct blocks through the parallel executor, against the shared sweep
/// cache.
pub fn sweep_step(job: &Job, cache: &mut SweepCache) -> FlowRun {
    let req = job.submit();
    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, protocol::BACKEND_BITS);
    let run = run_flow(
        &FlowRequest::new(&req.spec, &candidates, &params, &req.cfg),
        Some(&mut cache.0),
    );
    FlowRun::of(job.resolution, run)
}

/// Number of candidates the enumeration yields at `resolution`.
pub fn candidate_count(resolution: u32) -> usize {
    enumerate_candidates(resolution, protocol::BACKEND_BITS).len()
}

/// Outcome of one candidate's circuit-level sign-off.
#[derive(Debug, Clone, Copy)]
pub struct Signoff {
    /// Every stage settled to ½ LSB (false when the transient leg is off).
    pub settled: bool,
    /// Accepted plus rejected transient steps.
    pub steps: usize,
}

impl Blocks {
    fn candidate(&self, index: usize) -> Candidate {
        enumerate_candidates(self.resolution, protocol::BACKEND_BITS)
            .into_iter()
            .nth(index)
            .expect("candidate index within the enumeration")
    }

    /// Signs off enumerated candidate `index` at the circuit level: the
    /// AC chain check, plus the clocked transient when `transient`.
    pub fn signoff(&self, index: usize, transient: bool) -> Result<Signoff, String> {
        let spec = AdcSpec::date05(self.resolution);
        let opts = VerifyOptions {
            tran: if transient {
                Some(TranChainOptions::default())
            } else {
                None
            },
            ..VerifyOptions::default()
        };
        let v = verify_candidate(
            &spec,
            &self.candidate(index),
            &self.blocks,
            &PowerModelParams::calibrated(),
            &opts,
        )?;
        Ok(match v.tran {
            Some(t) => Signoff {
                settled: t.all_settled,
                steps: t.accepted + t.rejected,
            },
            None => Signoff {
                settled: false,
                steps: 0,
            },
        })
    }

    /// Index of `name` (e.g. `"4-3-2"`) in the enumeration.
    pub fn candidate_index(&self, name: &str) -> Option<usize> {
        enumerate_candidates(self.resolution, protocol::BACKEND_BITS)
            .iter()
            .position(|c| c.to_string() == name)
    }

    /// Synthesizes block `index` from scratch (`warm` `None`) or
    /// retargeted from an earlier result, with the default budget.
    pub fn synthesize(&self, index: usize, seed: u64, warm: Option<&Synth>) -> Synth {
        let block = &self.blocks[index];
        let cfg = SynthConfig {
            seed,
            ..SynthConfig::default()
        };
        let spec = AdcSpec::date05(self.resolution);
        Synth(synthesize_ota(
            &spec.process,
            &block.requirements,
            &cfg,
            warm.map(|s| &s.0),
        ))
    }

    /// The first two blocks sharing an OTA template: a cold-synthesis
    /// source and a retarget target.
    pub fn retarget_pair(&self) -> Option<(usize, usize)> {
        let n = self.blocks.len();
        (0..n).find_map(|i| {
            let template = self.blocks[i].requirements.template;
            (i + 1..n)
                .find(|&j| self.blocks[j].requirements.template == template)
                .map(|j| (i, j))
        })
    }

    /// The block testbench of block `index` at its synthesized sizing.
    pub fn block_bench(&self, index: usize) -> BlockBench {
        BlockBench::new(self.resolution, &self.blocks[index])
    }

    /// The chain testbench of enumerated candidate `index`.
    pub fn chain_bench(&self, index: usize) -> Result<ChainBench, String> {
        ChainBench::new(self.resolution, &self.candidate(index), &self.blocks)
    }
}

/// Transient sign-off of the deterministic sign-off fixture: the 13-bit
/// 4-3-2 chain with every stage on the nominal telescopic sizing.
pub fn signoff_fixture() -> Result<Signoff, String> {
    use adc_mdac::netlist::{build_pipeline, MdacStageConfig, OtaSizing, PipelineOptions};
    use adc_mdac::opamp::TelescopicParams;
    let spec = AdcSpec::date05(13);
    let designs = design_chain(&spec, &[4, 3, 2], &PowerModelParams::calibrated());
    let stages: Vec<MdacStageConfig> = designs
        .iter()
        .map(|d| {
            MdacStageConfig::from_design(d, OtaSizing::Telescopic(TelescopicParams::nominal()))
        })
        .collect();
    let tb = build_pipeline(&spec.process, &stages, &PipelineOptions::default())
        .map_err(|e| e.to_string())?;
    let mut setup = build_tran_setup(&spec, &tb, designs.iter().map(|d| d.spec.gain).collect());
    let report = TranChainEvaluator::new(TranChainOptions::default()).evaluate(&mut setup)?;
    Ok(Signoff {
        settled: report.all_settled,
        steps: report.accepted + report.rejected,
    })
}

/// A finished OTA synthesis.
pub struct Synth(SynthResult);

impl Synth {
    pub fn evaluations(&self) -> usize {
        self.0.evaluations
    }
}

fn block_setup(resolution: u32, template: TemplateKind, c_load: f64, x: &[f64]) -> BenchSetup {
    use adc_mdac::opamp::{
        build_telescopic, build_two_stage, TelescopicHandles, TelescopicParams, TwoStageHandles,
        TwoStageParams,
    };
    let process = AdcSpec::date05(resolution).process;
    match template {
        TemplateKind::Telescopic => {
            let tb = build_telescopic(&process, &TelescopicParams::from_vec(x), c_load);
            let handles =
                TelescopicHandles::resolve(&tb.circuit).expect("telescopic template handles");
            let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
                handles.retune(ckt, &TelescopicParams::from_vec(x));
            });
            BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
        }
        TemplateKind::TwoStage => {
            let tb = build_two_stage(&process, &TwoStageParams::from_vec(x), c_load);
            let handles =
                TwoStageHandles::resolve(&tb.circuit).expect("two-stage template handles");
            let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
                handles.retune(ckt, &TwoStageParams::from_vec(x));
            });
            BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
        }
    }
}

/// One OTA block testbench with the persistent workspaces the synthesis
/// loop reuses.
pub struct BlockBench {
    x: Vec<f64>,
    circuit: Circuit,
    output: NodeId,
    dc_opts: DcOptions,
    dc: DcWorkspace,
    op: Option<OperatingPoint>,
    tf: adc_sfg::nettf::NetTfWorkspace,
    evaluator: Box<dyn Evaluator>,
}

impl BlockBench {
    fn new(resolution: u32, block: &MdacBlock) -> BlockBench {
        let template = block.requirements.template;
        let c_load = block.requirements.c_load;
        let x = block.result.best_x.clone();
        let setup = block_setup(resolution, template, c_load, &x);
        let dc = DcWorkspace::new(&setup.circuit).expect("block testbench has unknowns");
        let evaluator = HybridOtaEvaluator::new(
            move |x: &[f64]| block_setup(resolution, template, c_load, x),
            HybridOptions::default(),
        );
        BlockBench {
            x,
            output: setup.output,
            circuit: setup.circuit,
            dc_opts: HybridOptions::default().dc,
            dc,
            op: None,
            tf: adc_sfg::nettf::NetTfWorkspace::new(),
            evaluator: Box::new(evaluator),
        }
    }

    /// One cold-start DC operating point of the block testbench.
    pub fn dc_solve(&mut self) -> Result<(), String> {
        let op = dc_operating_point_with(&mut self.dc, &self.circuit, &self.dc_opts)
            .map_err(|e| e.to_string())?;
        self.op = Some(op);
        Ok(())
    }

    /// One transfer-function extraction at the last DC operating point.
    pub fn extract_tf(&mut self) -> Result<(), String> {
        if self.op.is_none() {
            self.dc_solve()?;
        }
        let op = self.op.as_ref().expect("operating point solved above");
        adc_sfg::nettf::extract_tf_with(
            &mut self.tf,
            &self.circuit,
            op,
            self.output,
            &adc_sfg::nettf::NetTfOptions::default(),
        )
        .map(drop)
        .map_err(|e| e.to_string())
    }

    /// One hybrid (DC + TF) evaluation of the block at its sizing.
    pub fn hybrid_eval(&mut self) -> Result<(), String> {
        match self.evaluator.evaluate(std::hint::black_box(&self.x)) {
            EvalOutcome::Ok(_) => Ok(()),
            EvalOutcome::Failed(e) => Err(e),
        }
    }
}

/// One candidate's full-pipeline chain testbench with reusable evaluators.
pub struct ChainBench {
    circuit: Circuit,
    dc_opts: DcOptions,
    dc: DcWorkspace,
    bench: BenchSetup,
    chain: ChainEvaluator,
    tran_setup: TranChainSetup,
    tran: TranChainEvaluator,
}

impl ChainBench {
    fn new(
        resolution: u32,
        candidate: &Candidate,
        blocks: &[MdacBlock],
    ) -> Result<ChainBench, String> {
        let spec = AdcSpec::date05(resolution);
        let params = PowerModelParams::calibrated();
        let tb = build_candidate_testbench(
            &spec,
            candidate,
            blocks,
            &params,
            &VerifyOptions::default(),
        )?;
        let mut chain_opts = ChainOptions::default();
        chain_opts.dc.nodeset = tb.nodeset();
        chain_opts.dc.damping = DcDamping::PerNode;
        let gains = design_chain(&spec, candidate.front_bits(), &params)
            .iter()
            .map(|d| d.spec.gain)
            .collect();
        let tran_setup = build_tran_setup(&spec, &tb, gains);
        let dc = DcWorkspace::new(&tb.circuit).map_err(|e| e.to_string())?;
        Ok(ChainBench {
            dc_opts: tb.dc_options(),
            dc,
            bench: BenchSetup::new(
                tb.circuit.clone(),
                tb.output,
                tb.supply.clone(),
                tb.devices.clone(),
            ),
            circuit: tb.circuit,
            chain: ChainEvaluator::new(chain_opts),
            tran_setup,
            tran: TranChainEvaluator::new(TranChainOptions::default()),
        })
    }

    /// One DC operating point of the whole chain.
    pub fn dc_solve(&mut self) -> Result<(), String> {
        dc_operating_point_with(&mut self.dc, &self.circuit, &self.dc_opts)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// One small-signal chain evaluation (DC + probes + TF).
    pub fn chain_eval(&mut self) -> Result<(), String> {
        self.chain.evaluate(&self.bench).map(drop)
    }

    /// One clocked transient sign-off run of the chain.
    pub fn tran_eval(&mut self) -> Result<Signoff, String> {
        let report = self.tran.evaluate(&mut self.tran_setup)?;
        Ok(Signoff {
            settled: report.all_settled,
            steps: report.accepted + report.rejected,
        })
    }
}
