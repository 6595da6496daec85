//! One job-spec grammar for every ingress surface.
//!
//! A training job reaches the estimator three ways — CLI flags
//! (`--model gpt2 --optimizer AdamW --batch 16`), batch-queue job lines
//! (`gpt2 AdamW 16 seq=128 iters=2 pos1`), and HTTP JSON bodies
//! (`{"model": "gpt2", "optimizer": "AdamW", "batch": 16}`). All three are
//! spellings of the same seven fields, so they share one validator:
//! [`JobDraft`] collects raw field values and [`JobDraft::build`] turns
//! them into a [`TrainJobSpec`] with one set of error messages. The CLI,
//! the HTTP server and the examples parse through this module — there is
//! exactly one place where "what is a valid job?" is answered.

use serde::{obj_get, Value};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{Precision, TrainJobSpec, ZeroGradPos};

/// The most training iterations a job may ask to have profiled. The paper
/// profiles 3 (§3.1), and profiling and analysis work, and the memory an
/// analysis holds while it runs, grow linearly with the count; the cap
/// bounds a request at a few times the paper's default.
pub const MAX_ITERATIONS: u32 = 16;

/// The message every surface gives a batch size of 0: the one job
/// validation failure that is a range violation, not a grammar error.
pub const BATCH_RANGE_ERROR: &str = "`batch` must be >= 1";

/// An unvalidated job description: raw field values as they arrived from
/// a flag map, a job line, or a JSON object. [`JobDraft::build`] validates
/// and assembles them.
#[derive(Debug, Clone, Default)]
pub struct JobDraft {
    model: Option<String>,
    optimizer: Option<String>,
    batch: Option<String>,
    seq: Option<String>,
    iterations: Option<String>,
    pos1: bool,
    fp16: bool,
}

impl JobDraft {
    /// A draft with no fields set.
    #[must_use]
    pub fn new() -> Self {
        JobDraft::default()
    }

    /// Sets one field by its grammar name: `model`, `optimizer`, `batch`,
    /// `seq`, `iterations` take a value; the flags `pos1` and `fp16` are
    /// enabled by any of `""`, `"true"`, or `"1"` (and refused otherwise,
    /// so a typo like `pos1=maybe` cannot silently pass).
    ///
    /// # Errors
    /// Unknown field names and malformed flag values.
    pub fn set(&mut self, field: &str, value: &str) -> Result<(), String> {
        match field {
            "model" => self.model = Some(value.to_string()),
            "optimizer" => self.optimizer = Some(value.to_string()),
            "batch" => self.batch = Some(value.to_string()),
            "seq" => self.seq = Some(value.to_string()),
            "iterations" => self.iterations = Some(value.to_string()),
            "pos1" | "fp16" => {
                let enabled = matches!(value, "" | "true" | "1");
                if !enabled {
                    return Err(format!("`{field}` is a flag; got value `{value}`"));
                }
                if field == "pos1" {
                    self.pos1 = true;
                } else {
                    self.fp16 = true;
                }
            }
            other => return Err(format!("unknown job field `{other}`")),
        }
        Ok(())
    }

    /// Validates the draft into a [`TrainJobSpec`]. `default_batch` backs
    /// grid-driven callers (`sweep`, `plan`) where the batch size comes
    /// from the grid, not the spec.
    ///
    /// # Errors
    /// Missing required fields, unknown model/optimizer names,
    /// non-numeric numeric fields and `iterations` above
    /// [`MAX_ITERATIONS`] — with the same messages on every ingress
    /// surface.
    pub fn build(&self, default_batch: Option<usize>) -> Result<TrainJobSpec, String> {
        let model_name = self.model.as_deref().ok_or("`model` is required")?;
        let model = ModelId::by_name(model_name)
            .ok_or_else(|| format!("unknown model `{model_name}` (see `xmem-cli models`)"))?;
        let optimizer_name = self.optimizer.as_deref().ok_or("`optimizer` is required")?;
        let optimizer = OptimizerKind::parse(optimizer_name)
            .ok_or_else(|| format!("unknown optimizer `{optimizer_name}`"))?;
        let batch: usize = match (self.batch.as_deref(), default_batch) {
            (Some(raw), _) => raw
                .parse()
                .map_err(|_| "`batch` must be a number".to_string())?,
            (None, Some(default)) => default,
            (None, None) => return Err("`batch` is required".to_string()),
        };
        if batch == 0 {
            return Err(BATCH_RANGE_ERROR.to_string());
        }
        let mut spec = TrainJobSpec::new(model, optimizer, batch);
        if let Some(seq) = self.seq.as_deref() {
            spec.seq = seq.parse().map_err(|_| "`seq` must be a number")?;
        }
        if let Some(iterations) = self.iterations.as_deref() {
            spec.iterations = iterations
                .parse()
                .map_err(|_| "`iterations` must be a number")?;
            if spec.iterations > MAX_ITERATIONS {
                return Err(format!("`iterations` must be <= {MAX_ITERATIONS}"));
            }
        }
        if self.pos1 {
            spec = spec.with_zero_grad(ZeroGradPos::IterStart);
        }
        if self.fp16 {
            spec = spec.with_precision(Precision::F16);
        }
        Ok(spec)
    }
}

/// Parses one batch-queue job line:
/// `<model> <optimizer> <batch> [seq=N] [iters=N] [pos1] [fp16]`.
///
/// # Errors
/// Missing positionals, unknown tokens, and every [`JobDraft::build`]
/// failure.
///
/// # Example
/// ```
/// use xmem_service::jobspec::parse_job_line;
/// let spec = parse_job_line("distilgpt2 AdamW 4 iters=2 fp16").unwrap();
/// assert_eq!(spec.batch, 4);
/// assert_eq!(spec.iterations, 2);
/// ```
pub fn parse_job_line(line: &str) -> Result<TrainJobSpec, String> {
    let mut tokens = line.split_whitespace();
    let mut draft = JobDraft::new();
    for positional in ["model", "optimizer", "batch"] {
        let value = tokens
            .next()
            .ok_or_else(|| format!("missing {positional}"))?;
        draft.set(positional, value)?;
    }
    for token in tokens {
        if let Some(seq) = token.strip_prefix("seq=") {
            draft.set("seq", seq)?;
        } else if let Some(iters) = token.strip_prefix("iters=") {
            draft.set("iterations", iters)?;
        } else if token == "pos1" || token == "fp16" {
            draft.set(token, "true")?;
        } else {
            return Err(format!("unknown job token `{token}`"));
        }
    }
    draft.build(None)
}

/// Parses a whole job file — one job line each, `#` comments, blank lines
/// skipped — reporting failures with their 1-based line number.
///
/// # Errors
/// The first malformed line, as `line N: <reason>`.
pub fn parse_jobs_text(text: &str) -> Result<Vec<TrainJobSpec>, String> {
    let mut specs = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let spec = parse_job_line(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        specs.push(spec);
    }
    Ok(specs)
}

/// Parses the JSON spelling of a job: an object with `model`, `optimizer`,
/// `batch` (required) and `seq`, `iterations`, `pos1`, `fp16` (optional).
/// Numeric fields accept JSON numbers or numeric strings; the flags accept
/// JSON booleans.
///
/// # Errors
/// Non-object values, unknown keys, and every [`JobDraft::build`] failure.
pub fn job_from_value(value: &Value) -> Result<TrainJobSpec, String> {
    job_from_value_with_batch(value, None)
}

/// [`job_from_value`] for grid-driven callers (`sweep`, `plan`), where the
/// batch size comes from the grid: `default_batch` backs an omitted
/// `batch` field instead of failing with `` `batch` is required``.
///
/// # Errors
/// The same failures as [`job_from_value`], minus a missing `batch` when
/// `default_batch` is given.
pub fn job_from_value_with_batch(
    value: &Value,
    default_batch: Option<usize>,
) -> Result<TrainJobSpec, String> {
    let entries = value.as_object().ok_or("job must be a JSON object")?;
    let mut draft = JobDraft::new();
    for (key, field_value) in entries {
        match (key.as_str(), field_value) {
            ("pos1" | "fp16", Value::Bool(enabled)) => {
                if *enabled {
                    draft.set(key, "true")?;
                }
            }
            (_, Value::Str(s)) => draft.set(key, s)?,
            (_, Value::U64(n)) => draft.set(key, &n.to_string())?,
            (_, Value::I64(n)) => draft.set(key, &n.to_string())?,
            (key, _) => return Err(format!("field `{key}` has an unsupported JSON type")),
        }
    }
    draft.build(default_batch)
}

/// Renders a spec into the JSON object [`job_from_value`] parses — the
/// canonical wire spelling HTTP clients send. Round-trips exactly for any
/// spec expressible in the grammar (model/optimizer by name, default
/// seed).
#[must_use]
pub fn job_to_value(spec: &TrainJobSpec) -> Value {
    let mut entries = vec![
        (
            "model".to_string(),
            Value::Str(spec.model.info().name.to_string()),
        ),
        (
            "optimizer".to_string(),
            Value::Str(spec.optimizer.name().to_string()),
        ),
        ("batch".to_string(), Value::U64(spec.batch as u64)),
    ];
    if spec.seq != 0 {
        entries.push(("seq".to_string(), Value::U64(spec.seq as u64)));
    }
    entries.push((
        "iterations".to_string(),
        Value::U64(u64::from(spec.iterations)),
    ));
    if spec.zero_grad_pos == ZeroGradPos::IterStart {
        entries.push(("pos1".to_string(), Value::Bool(true)));
    }
    if spec.precision == Precision::F16 {
        entries.push(("fp16".to_string(), Value::Bool(true)));
    }
    Value::Object(entries)
}

/// Checks a sweep's batch grid, given as each point's parse result in
/// order: the grid keeps each batch size's first occurrence (a repeat
/// would only repeat a cache hit) and refuses a batch of 0 with
/// [`BATCH_RANGE_ERROR`]. Each surface parses its own spelling of a
/// point, and checks for an empty grid itself.
///
/// # Errors
/// The first point's parse error or zero, in grid order.
pub fn batch_grid(
    points: impl IntoIterator<Item = Result<usize, String>>,
) -> Result<Vec<usize>, String> {
    let mut grid = Vec::new();
    for point in points {
        match point? {
            0 => return Err(BATCH_RANGE_ERROR.to_string()),
            batch if !grid.contains(&batch) => grid.push(batch),
            _ => {}
        }
    }
    Ok(grid)
}

/// Checks an admission-control search range: `1 <= lo <= hi`.
///
/// # Errors
/// Any other range, as `invalid batch range [lo, hi]`.
pub fn batch_range(lo: usize, hi: usize) -> Result<(), String> {
    if lo < 1 || lo > hi {
        return Err(format!("invalid batch range [{lo}, {hi}]"));
    }
    Ok(())
}

/// Reads an optional JSON field as a `usize`, accepting numbers or numeric
/// strings — the shared convention for auxiliary request fields (`min`,
/// `max`, `batches`) that ride alongside a job object.
///
/// # Errors
/// Present-but-non-numeric values, as `` `field` must be a number``.
pub fn usize_field(entries: &[(String, Value)], field: &str) -> Result<Option<usize>, String> {
    match obj_get(entries, field) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => {
            let parsed = match value {
                Value::U64(n) => usize::try_from(*n).ok(),
                Value::I64(n) => usize::try_from(*n).ok(),
                Value::Str(s) => s.parse().ok(),
                _ => None,
            };
            parsed
                .map(Some)
                .ok_or_else(|| format!("`{field}` must be a number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_json_spellings_agree() {
        let from_line = parse_job_line("distilgpt2 AdamW 4 seq=64 iters=2 pos1 fp16").unwrap();
        let json: Value = serde_json::from_str(
            r#"{"model":"distilgpt2","optimizer":"AdamW","batch":4,
                "seq":64,"iterations":2,"pos1":true,"fp16":true}"#,
        )
        .unwrap();
        let from_json = job_from_value(&json).unwrap();
        assert_eq!(from_line, from_json);
        assert_eq!(from_line.seq, 64);
        assert_eq!(from_line.iterations, 2);
        assert_eq!(from_line.zero_grad_pos, ZeroGradPos::IterStart);
        assert_eq!(from_line.precision, Precision::F16);
    }

    #[test]
    fn job_to_value_round_trips() {
        let spec = parse_job_line("gpt2 Adam 2 seq=128 iters=2 fp16").unwrap();
        let round_tripped = job_from_value(&job_to_value(&spec)).unwrap();
        assert_eq!(spec, round_tripped);
        let plain = parse_job_line("MobeNetV3Small Adam 8").unwrap();
        assert_eq!(plain, job_from_value(&job_to_value(&plain)).unwrap());
    }

    #[test]
    fn errors_are_stable_across_spellings() {
        let line_err = parse_job_line("nonexistent Adam 8").unwrap_err();
        let json: Value =
            serde_json::from_str(r#"{"model":"nonexistent","optimizer":"Adam","batch":8}"#)
                .unwrap();
        let json_err = job_from_value(&json).unwrap_err();
        assert_eq!(line_err, json_err);
        assert!(line_err.contains("unknown model"));
    }

    #[test]
    fn flags_reject_values_and_unknown_fields_fail() {
        let mut draft = JobDraft::new();
        assert!(draft.set("pos1", "maybe").is_err());
        assert!(draft.set("color", "red").is_err());
        assert!(parse_job_line("gpt2 Adam 8 wat=1").is_err());
        assert!(parse_job_line("gpt2 Adam").is_err(), "missing batch");
        assert!(parse_job_line("gpt2 Adam notanumber").is_err());
    }

    #[test]
    fn jobs_text_skips_comments_and_numbers_errors() {
        let specs = parse_jobs_text(
            "# queue\n\nMobeNetV3Small Adam 8 iters=2\ndistilgpt2 AdamW 4 # trailing\n",
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        let err = parse_jobs_text("MobeNetV3Small Adam 8\n\nbad line here\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn batch_zero_is_rejected_with_one_stable_error_on_every_surface() {
        let want = "`batch` must be >= 1";
        // Job-line spelling.
        assert_eq!(parse_job_line("gpt2 Adam 0").unwrap_err(), want);
        // Flag-map spelling (CLI `--batch 0`).
        let mut draft = JobDraft::new();
        draft.set("model", "gpt2").unwrap();
        draft.set("optimizer", "Adam").unwrap();
        draft.set("batch", "0").unwrap();
        assert_eq!(draft.build(None).unwrap_err(), want);
        // JSON spelling, number and string forms.
        let json: Value =
            serde_json::from_str(r#"{"model":"gpt2","optimizer":"Adam","batch":0}"#).unwrap();
        assert_eq!(job_from_value(&json).unwrap_err(), want);
        let json: Value =
            serde_json::from_str(r#"{"model":"gpt2","optimizer":"Adam","batch":"0"}"#).unwrap();
        assert_eq!(job_from_value(&json).unwrap_err(), want);
        // Grid-driven default batch (a zero sweep-grid point).
        let mut grid = JobDraft::new();
        grid.set("model", "gpt2").unwrap();
        grid.set("optimizer", "Adam").unwrap();
        assert_eq!(grid.build(Some(0)).unwrap_err(), want);
        // Negative numbers stay a parse error, not a range error.
        assert_eq!(
            parse_job_line("gpt2 Adam -3").unwrap_err(),
            "`batch` must be a number"
        );
    }

    #[test]
    fn iterations_above_the_cap_are_rejected_on_every_surface() {
        let want = format!("`iterations` must be <= {MAX_ITERATIONS}");
        let over = u64::from(MAX_ITERATIONS) + 1;
        assert_eq!(
            parse_job_line(&format!("gpt2 Adam 8 iters={over}")).unwrap_err(),
            want
        );
        let mut draft = JobDraft::new();
        draft.set("model", "gpt2").unwrap();
        draft.set("optimizer", "Adam").unwrap();
        draft.set("batch", "8").unwrap();
        draft.set("iterations", "4294967295").unwrap();
        assert_eq!(draft.build(None).unwrap_err(), want);
        let json: Value = serde_json::from_str(
            r#"{"model":"gpt2","optimizer":"Adam","batch":8,"iterations":4294967295}"#,
        )
        .unwrap();
        assert_eq!(job_from_value(&json).unwrap_err(), want);
        // Past `u32` it stays a parse error.
        draft.set("iterations", "4294967296").unwrap();
        assert_eq!(
            draft.build(None).unwrap_err(),
            "`iterations` must be a number"
        );
        // The cap itself, and the paper's default, are accepted.
        let at_cap = parse_job_line(&format!("gpt2 Adam 8 iters={MAX_ITERATIONS}")).unwrap();
        assert_eq!(at_cap.iterations, MAX_ITERATIONS);
        assert_eq!(parse_job_line("gpt2 Adam 8 iters=3").unwrap().iterations, 3);
    }

    #[test]
    fn batch_grids_keep_first_occurrences_and_refuse_zero() {
        let grid = |points: &[usize]| batch_grid(points.iter().map(|&b| Ok(b)));
        assert_eq!(grid(&[8, 2, 8, 4, 2]).unwrap(), [8, 2, 4]);
        assert_eq!(grid(&[2, 0, 4]).unwrap_err(), BATCH_RANGE_ERROR);
        let parse_error = batch_grid([Ok(2), Err("bad".to_string()), Ok(0)]);
        assert_eq!(parse_error.unwrap_err(), "bad", "errors come in grid order");
        assert!(batch_range(1, 1).is_ok());
        assert_eq!(batch_range(0, 4).unwrap_err(), "invalid batch range [0, 4]");
        assert_eq!(batch_range(5, 4).unwrap_err(), "invalid batch range [5, 4]");
    }

    #[test]
    fn default_batch_backs_grid_callers() {
        let mut draft = JobDraft::new();
        draft.set("model", "MobeNetV3Small").unwrap();
        draft.set("optimizer", "Adam").unwrap();
        assert_eq!(draft.build(Some(7)).unwrap().batch, 7);
        assert!(draft.build(None).unwrap_err().contains("`batch`"));
    }
}
