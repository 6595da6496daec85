//! Canonical event names shared by the profiler (writer side) and the
//! Analyzer (reader side).
//!
//! These mirror the strings a real PyTorch profiler export contains, so the
//! Analyzer's matching logic is the same string-level logic the paper's tool
//! needs: prefix tests and step-number parsing, not privileged access to
//! runtime internals.

/// Name of every memory alloc/free instant.
pub const MEMORY: &str = "[memory]";
/// Iteration boundary marker: `ProfilerStep#<k>`.
pub const PROFILER_STEP_PREFIX: &str = "ProfilerStep#";
/// Optimizer step annotation: `Optimizer.step#<Name>.step`.
pub const OPTIMIZER_STEP_PREFIX: &str = "Optimizer.step#";
/// Gradient-clearing annotation: `Optimizer.zero_grad#<Name>.zero_grad`.
pub const OPTIMIZER_ZERO_GRAD_PREFIX: &str = "Optimizer.zero_grad#";
/// Dataloader fetch annotation, as PyTorch names it.
pub const DATALOADER_NEXT: &str = "enumerate(DataLoader)#_SingleProcessDataLoaderIter.__next__";
/// Model-loading annotation covering parameter materialization
/// (`model.to(device)` in the standard loop).
pub const MODEL_TO_DEVICE: &str = "model.to(device)";
/// Loss backward annotation wrapping the whole autograd pass.
pub const BACKWARD_CALL: &str = "loss.backward()";
/// Module-call `python_function` prefix: `nn.Module: <path>`.
pub const NN_MODULE_PREFIX: &str = "nn.Module: ";
/// Backward-node `cpu_op` prefix:
/// `autograd::engine::evaluate_function: <Node>`.
pub const AUTOGRAD_NODE_PREFIX: &str = "autograd::engine::evaluate_function: ";
/// Gradient-accumulation backward node (writes parameter `.grad`s).
pub const ACCUMULATE_GRAD: &str = "torch::autograd::AccumulateGrad";

/// Formats the iteration marker for step `k`.
#[must_use]
pub fn profiler_step(k: u32) -> String {
    format!("{PROFILER_STEP_PREFIX}{k}")
}

/// Parses `ProfilerStep#<k>`, returning `k`.
#[must_use]
pub fn parse_profiler_step(name: &str) -> Option<u32> {
    name.strip_prefix(PROFILER_STEP_PREFIX)?.parse().ok()
}

/// Formats the optimizer-step annotation, e.g. `Optimizer.step#AdamW.step`.
#[must_use]
pub fn optimizer_step(optimizer: &str) -> String {
    format!("{OPTIMIZER_STEP_PREFIX}{optimizer}.step")
}

/// Whether a `user_annotation` name marks an optimizer step.
#[must_use]
pub fn is_optimizer_step(name: &str) -> bool {
    name.starts_with(OPTIMIZER_STEP_PREFIX)
}

/// Formats the zero-grad annotation, e.g.
/// `Optimizer.zero_grad#AdamW.zero_grad`.
#[must_use]
pub fn optimizer_zero_grad(optimizer: &str) -> String {
    format!("{OPTIMIZER_ZERO_GRAD_PREFIX}{optimizer}.zero_grad")
}

/// Whether a `user_annotation` name marks a zero-grad call.
#[must_use]
pub fn is_optimizer_zero_grad(name: &str) -> bool {
    name.starts_with(OPTIMIZER_ZERO_GRAD_PREFIX)
}

/// Formats a module-call `python_function` name for module path `path`.
#[must_use]
pub fn nn_module(path: &str) -> String {
    format!("{NN_MODULE_PREFIX}{path}")
}

/// Extracts the module path from an `nn.Module: <path>` name.
#[must_use]
pub fn parse_nn_module(name: &str) -> Option<&str> {
    name.strip_prefix(NN_MODULE_PREFIX)
}

/// Formats a backward-engine `cpu_op` name for autograd node `node`,
/// e.g. `AddmmBackward0`.
#[must_use]
pub fn autograd_node(node: &str) -> String {
    format!("{AUTOGRAD_NODE_PREFIX}{node}")
}

/// Extracts the autograd node name from a backward-engine `cpu_op` name.
#[must_use]
pub fn parse_autograd_node(name: &str) -> Option<&str> {
    name.strip_prefix(AUTOGRAD_NODE_PREFIX)
}

/// Whether a `cpu_op` name belongs to the backward pass (autograd engine or
/// gradient accumulation).
#[must_use]
pub fn is_backward_op(name: &str) -> bool {
    name.starts_with(AUTOGRAD_NODE_PREFIX) || name == ACCUMULATE_GRAD
}

/// The conventional backward-node name for a forward kernel, e.g.
/// `aten::linear` → `LinearBackward0`.
#[must_use]
pub fn backward_node_for(aten_name: &str) -> String {
    let base = aten_name.strip_prefix("aten::").unwrap_or(aten_name);
    let mut chars = base.chars();
    let camel: String = match chars.next() {
        Some(c) => c.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    };
    // `max_pool2d` → `MaxPool2d`: uppercase letters following underscores.
    let mut out = String::with_capacity(camel.len());
    let mut upper_next = false;
    for ch in camel.chars() {
        if ch == '_' {
            upper_next = true;
        } else if upper_next {
            out.push(ch.to_ascii_uppercase());
            upper_next = false;
        } else {
            out.push(ch);
        }
    }
    format!("{out}Backward0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_step_roundtrip() {
        assert_eq!(parse_profiler_step(&profiler_step(3)), Some(3));
        assert_eq!(parse_profiler_step("ProfilerStep#12"), Some(12));
        assert_eq!(parse_profiler_step("ProfilerStep#x"), None);
        assert_eq!(parse_profiler_step("Other"), None);
    }

    #[test]
    fn optimizer_annotations() {
        assert_eq!(optimizer_step("AdamW"), "Optimizer.step#AdamW.step");
        assert!(is_optimizer_step("Optimizer.step#SGD.step"));
        assert!(!is_optimizer_step("Optimizer.zero_grad#SGD.zero_grad"));
        assert!(is_optimizer_zero_grad(&optimizer_zero_grad("SGD")));
    }

    #[test]
    fn module_names() {
        assert_eq!(
            parse_nn_module(&nn_module("features.0")),
            Some("features.0")
        );
        assert_eq!(parse_nn_module("aten::linear"), None);
    }

    #[test]
    fn backward_naming() {
        assert_eq!(backward_node_for("aten::linear"), "LinearBackward0");
        assert_eq!(backward_node_for("aten::max_pool2d"), "MaxPool2dBackward0");
        assert!(is_backward_op(&autograd_node("LinearBackward0")));
        assert!(is_backward_op(ACCUMULATE_GRAD));
        assert!(!is_backward_op("aten::linear"));
        assert_eq!(
            parse_autograd_node(&autograd_node("ConvolutionBackward0")),
            Some("ConvolutionBackward0")
        );
    }
}
