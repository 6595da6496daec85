//! Seeded workload generation.
//!
//! A workload is a *deck* of distinct requests plus two sequences of deck
//! indices: the prewarm (`setup`) and the measured stream. The seed picks
//! which jobs are sent and in what order; the cost profile stays fixed:
//! every model holds the same share of every working set and popularity
//! band, and working-set sizes, the popularity curve and the plan share
//! are constants of the workload.

use serde::Value;
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{Precision, TrainJobSpec, ZeroGradPos};
use xmem_service::jobspec::job_to_value;

/// Six CNNs and six transformers whose estimates cost about the same
/// (≈2 ms profile, ≈1 ms analysis, ≈1.6 ms replay with two iterations).
pub const MODELS: [ModelId; 12] = [
    ModelId::MobileNetV2,
    ModelId::MobileNetV3Small,
    ModelId::MobileNetV3Large,
    ModelId::MnasNet,
    ModelId::RegNetX400MF,
    ModelId::ConvNextTiny,
    ModelId::DistilGpt2,
    ModelId::Gpt2,
    ModelId::T5Small,
    ModelId::GptNeo125M,
    ModelId::Opt125M,
    ModelId::CerebrasGpt111M,
];

/// Profiled iterations of every generated job.
const ITERATIONS: u32 = 2;
/// Batch sizes jobs draw from: `1..=MAX_BATCH`.
const MAX_BATCH: usize = 128;
/// The optimizers of the hot working set.
const HOT_OPTIMIZERS: [OptimizerKind; 4] = [
    OptimizerKind::Adam,
    OptimizerKind::AdamW,
    OptimizerKind::Sgd { momentum: true },
    OptimizerKind::RMSprop,
];
/// Jobs in the `admit_hot` / `fleet_hot` working set.
const HOT_JOBS: usize = MODELS.len() * HOT_OPTIMIZERS.len();
/// Jobs per `/v1/matrix` request on `fleet_hot`.
const MATRIX_JOBS: usize = 16;
/// Distinct matrix requests on `fleet_hot` (4 covers of the working set).
const MATRIX_DECK: usize = 12;
/// The stage cache's entry capacity at default flags.
const STAGE_CAPACITY: usize = 256;
/// On `cold_pipeline`, every `PLAN_EVERY`-th request is a `/v1/plan`.
const PLAN_EVERY: usize = 40;
/// `churn_zipf` universe: four times the stage cache.
const ZIPF_JOBS: usize = 1024;
/// Longest measured stream generated for the repeating workloads.
const STREAM_CAP: usize = 400_000;
/// The device `/v1/plan` requests target.
pub const PLAN_DEVICE: &str = "rtx3060";

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["admit_hot", "fleet_hot", "cold_pipeline", "churn_zipf"];

/// One query, as the oracle and the traced pass see it.
#[derive(Debug, Clone)]
pub enum Query {
    /// `POST /v1/estimate` on the default device.
    Estimate(TrainJobSpec),
    /// `POST /v1/matrix` over every registered device.
    Matrix(Vec<TrainJobSpec>),
    /// `POST /v1/best-device`.
    BestDevice(TrainJobSpec),
    /// `POST /v1/plan` over the default batch range on [`PLAN_DEVICE`].
    Plan(TrainJobSpec),
}

impl Query {
    /// The route's path.
    pub fn path(&self) -> &'static str {
        match self {
            Query::Estimate(_) => "/v1/estimate",
            Query::Matrix(_) => "/v1/matrix",
            Query::BestDevice(_) => "/v1/best-device",
            Query::Plan(_) => "/v1/plan",
        }
    }

    /// The JSON request body.
    fn body(&self) -> String {
        let value = match self {
            Query::Estimate(spec) | Query::BestDevice(spec) => job_to_value(spec),
            Query::Matrix(specs) => Value::Object(vec![(
                "jobs".to_string(),
                Value::Array(specs.iter().map(job_to_value).collect()),
            )]),
            Query::Plan(spec) => {
                // The range supplies the batch sizes, so the job omits one.
                let Value::Object(mut fields) = job_to_value(spec) else {
                    unreachable!("jobs render as objects")
                };
                fields.retain(|(key, _)| key != "batch");
                Value::Object(vec![
                    ("job".to_string(), Value::Object(fields)),
                    ("device".to_string(), Value::Str(PLAN_DEVICE.to_string())),
                ])
            }
        };
        serde_json::to_string(&value).expect("rendering a value is infallible")
    }
}

/// A deck entry: the query and its complete HTTP/1.1 request bytes.
#[derive(Debug, Clone)]
pub struct DeckEntry {
    pub query: Query,
    pub wire: Vec<u8>,
}

impl DeckEntry {
    fn new(query: Query) -> Self {
        let body = query.body();
        let wire = format!(
            "POST {} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            query.path(),
            body.len()
        )
        .into_bytes();
        DeckEntry { query, wire }
    }
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub deck: Vec<DeckEntry>,
    /// Prewarm sequence (deck indices), sent through the measured load.
    pub setup: Vec<u32>,
    /// Measured stream (deck indices); the load stops at the time limit
    /// or at the end of the stream, whichever comes first.
    pub measured: Vec<u32>,
    /// Measured requests the traced pass replays (a constant, so counts
    /// repeat exactly at a fixed seed).
    pub trace_requests: usize,
}

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn job(model: ModelId, optimizer: OptimizerKind, batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(model, optimizer, batch).with_iterations(ITERATIONS)
}

/// `count` distinct jobs in blocks of one job per (model, optimizer)
/// class, each block in seeded order, so any prefix holds every class
/// equally (±1). Each class draws its batches without replacement.
fn distinct_jobs(count: usize, rng: &mut Rng) -> Vec<TrainJobSpec> {
    let classes: Vec<(ModelId, OptimizerKind)> = MODELS
        .iter()
        .flat_map(|&model| OptimizerKind::all().map(|opt| (model, opt)))
        .collect();
    let mut batches: Vec<Vec<usize>> = classes
        .iter()
        .map(|_| {
            let mut grid: Vec<usize> = (1..=MAX_BATCH).collect();
            rng.shuffle(&mut grid);
            grid
        })
        .collect();
    let mut jobs = Vec::with_capacity(count);
    while jobs.len() < count {
        let mut block: Vec<usize> = (0..classes.len()).collect();
        rng.shuffle(&mut block);
        for class in block.into_iter().take(count - jobs.len()) {
            let (model, opt) = classes[class];
            let batch = batches[class]
                .pop()
                .expect("MAX_BATCH covers every class's draws");
            jobs.push(job(model, opt, batch));
        }
    }
    jobs
}

/// The hot working set: every model with each of [`HOT_OPTIMIZERS`], one
/// job in each quarter of the batch range, in seeded order.
fn hot_jobs(rng: &mut Rng) -> Vec<TrainJobSpec> {
    let width = MAX_BATCH / HOT_OPTIMIZERS.len();
    let mut jobs = Vec::with_capacity(HOT_JOBS);
    for &model in &MODELS {
        let mut bands: Vec<usize> = (0..HOT_OPTIMIZERS.len()).collect();
        rng.shuffle(&mut bands);
        for (&opt, band) in HOT_OPTIMIZERS.iter().zip(bands) {
            jobs.push(job(model, opt, band * width + 1 + rng.below(width)));
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Model indices in blocks of one per model, each block in seeded order.
fn stratified_models(count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order = Vec::with_capacity(count + MODELS.len());
    while order.len() < count {
        let mut block: Vec<usize> = (0..MODELS.len()).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(count);
    order
}

impl Workload {
    /// Generates workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let workload = match name {
            "admit_hot" => admit_hot(&mut rng),
            "fleet_hot" => fleet_hot(&mut rng),
            "cold_pipeline" => cold_pipeline(&mut rng),
            "churn_zipf" => churn_zipf(&mut rng),
            _ => return None,
        };
        Some(workload)
    }
}

fn admit_hot(rng: &mut Rng) -> Workload {
    let jobs = hot_jobs(rng);
    let deck: Vec<DeckEntry> = jobs
        .into_iter()
        .map(|j| DeckEntry::new(Query::Estimate(j)))
        .collect();
    let mut setup: Vec<u32> = (0..deck.len() as u32).collect();
    rng.shuffle(&mut setup);
    let measured = (0..STREAM_CAP)
        .map(|_| rng.below(deck.len()) as u32)
        .collect();
    Workload {
        name: "admit_hot",
        deck,
        setup,
        measured,
        trace_requests: 1000,
    }
}

fn fleet_hot(rng: &mut Rng) -> Workload {
    let jobs = hot_jobs(rng);
    // Slots 0..48: one best-device request per job; slots 48..60: matrix
    // requests, each cover of three covering the whole working set.
    let mut deck: Vec<DeckEntry> = jobs
        .iter()
        .map(|j| DeckEntry::new(Query::BestDevice(j.clone())))
        .collect();
    for _ in 0..MATRIX_DECK / (HOT_JOBS / MATRIX_JOBS) {
        let mut cover = jobs.clone();
        rng.shuffle(&mut cover);
        for chunk in cover.chunks(MATRIX_JOBS) {
            deck.push(DeckEntry::new(Query::Matrix(chunk.to_vec())));
        }
    }
    let matrices = HOT_JOBS as u32;
    let setup = (matrices..matrices + (HOT_JOBS / MATRIX_JOBS) as u32).collect();
    let measured = (0..STREAM_CAP)
        .map(|i| {
            if i % 2 == 0 {
                matrices + rng.below(MATRIX_DECK) as u32
            } else {
                rng.below(HOT_JOBS) as u32
            }
        })
        .collect();
    Workload {
        name: "fleet_hot",
        deck,
        setup,
        measured,
        trace_requests: 600,
    }
}

fn cold_pipeline(rng: &mut Rng) -> Workload {
    // Plan families differ from every estimated job in `zero_grad`
    // placement and/or precision, so each plan starts cold.
    let mut families: Vec<Vec<TrainJobSpec>> = MODELS
        .iter()
        .map(|&model| {
            let mut fams: Vec<TrainJobSpec> = OptimizerKind::all()
                .into_iter()
                .flat_map(|opt| {
                    let base = job(model, opt, 1);
                    [
                        base.clone().with_zero_grad(ZeroGradPos::IterStart),
                        base.clone().with_precision(Precision::F16),
                        base.with_zero_grad(ZeroGradPos::IterStart)
                            .with_precision(Precision::F16),
                    ]
                })
                .collect();
            rng.shuffle(&mut fams);
            fams
        })
        .collect();
    let plan_capacity = families.iter().map(Vec::len).sum::<usize>();
    let stream_len = plan_capacity * PLAN_EVERY;
    let estimates = distinct_jobs(STAGE_CAPACITY + stream_len - plan_capacity, rng);
    let mut estimates = estimates.into_iter();
    let mut deck: Vec<DeckEntry> = (&mut estimates)
        .take(STAGE_CAPACITY)
        .map(|j| DeckEntry::new(Query::Estimate(j)))
        .collect();
    let setup = (0..STAGE_CAPACITY as u32).collect();
    let plan_models = stratified_models(plan_capacity, rng);
    let mut plan_models = plan_models.into_iter();
    for i in 0..stream_len {
        let query = if i % PLAN_EVERY == PLAN_EVERY - 1 {
            let m = plan_models.next().expect("one model per plan");
            Query::Plan(
                families[m]
                    .pop()
                    .expect("stratified draws fit every model's families"),
            )
        } else {
            Query::Estimate(estimates.next().expect("sized for the stream"))
        };
        deck.push(DeckEntry::new(query));
    }
    let measured = (STAGE_CAPACITY as u32..deck.len() as u32).collect();
    Workload {
        name: "cold_pipeline",
        deck,
        setup,
        measured,
        trace_requests: 512,
    }
}

fn churn_zipf(rng: &mut Rng) -> Workload {
    // Rank r is deck slot r: every block of 72 consecutive ranks holds one
    // job per (model, optimizer) class.
    let jobs = distinct_jobs(ZIPF_JOBS, rng);
    let deck: Vec<DeckEntry> = jobs
        .into_iter()
        .map(|j| DeckEntry::new(Query::Estimate(j)))
        .collect();
    // Zipf(s = 1) over the ranks, by inverse CDF.
    let mut cdf = Vec::with_capacity(ZIPF_JOBS);
    let mut total = 0.0;
    for rank in 1..=ZIPF_JOBS {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut draw = || {
        let u = rng.unit() * total;
        cdf.partition_point(|&c| c < u).min(ZIPF_JOBS - 1) as u32
    };
    let setup = (0..STAGE_CAPACITY).map(|_| draw()).collect();
    let measured = (0..STREAM_CAP).map(|_| draw()).collect();
    Workload {
        name: "churn_zipf",
        deck,
        setup,
        measured,
        trace_requests: 1500,
    }
}
