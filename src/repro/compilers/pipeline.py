"""Optimization pipelines: running passes at a given -O level."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

from repro.compilers.passes import (
    Capability,
    OptimizationContext,
    SimplifyCfgPass,
    UBAwareInstSimplifyPass,
)
from repro.ir.function import Function, Module


@dataclass
class OptimizationPipeline:
    """A fixed-point pass pipeline parameterised by enabled capabilities."""

    capabilities: Set[Capability] = field(default_factory=set)
    max_iterations: int = 8

    def run_function(self, function: Function) -> OptimizationContext:
        """Optimize one function in place; returns the accumulated context."""
        context = OptimizationContext(capabilities=set(self.capabilities))
        simplify = UBAwareInstSimplifyPass()
        cfg = SimplifyCfgPass()
        for _iteration in range(self.max_iterations):
            changed = simplify.run(function, context)
            changed += cfg.run(function, context)
            if not changed:
                break
        return context

    def run_module(self, module: Module) -> OptimizationContext:
        total = OptimizationContext(capabilities=set(self.capabilities))
        for function in module.defined_functions():
            context = self.run_function(function)
            total.folded_comparisons += context.folded_comparisons
            total.removed_blocks += context.removed_blocks
        return total


def optimize_function(function: Function,
                      capabilities: Iterable[Capability]) -> OptimizationContext:
    """Convenience helper: optimize ``function`` with the given capabilities."""
    pipeline = OptimizationPipeline(capabilities=set(capabilities))
    return pipeline.run_function(function)
