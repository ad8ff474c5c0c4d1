"""Rewrite-rule families and ruleset assembly.

:func:`build_ruleset` is the single entry point the compiler driver
uses; its flags correspond to the paper's configuration knobs:

* ``enable_vector``  -- turn off for the Section 5.6 vectorization
  ablation (scalar rules and CSE only).
* ``enable_ac``      -- full associativity/commutativity, off by
  default exactly as in the paper's evaluation (Section 5.2).
* ``extra_rules``    -- user extensions, e.g. a target-specific
  ``recip`` rule (the Section 6 portability recipe).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

from ..egraph.rewrite import Rewrite
from .ac import ac_rules, associativity_rules, commutativity_rules
from .arith import scalar_rules
from .mac import mac_rule
from .vector import (
    binary_vectorize_rule,
    list_split_rule,
    unary_vectorize_rule,
    vector_identity_rules,
)

__all__ = [
    "build_ruleset",
    "scalar_rules",
    "ac_rules",
    "associativity_rules",
    "commutativity_rules",
    "mac_rule",
    "list_split_rule",
    "binary_vectorize_rule",
    "unary_vectorize_rule",
    "vector_identity_rules",
]


def build_ruleset(
    width: int = 4,
    enable_scalar: bool = True,
    enable_vector: bool = True,
    enable_ac: bool = False,
    extra_rules: Optional[Sequence[Rewrite]] = None,
    only_tags: Optional[Sequence[str]] = None,
) -> List[Rewrite]:
    """Assemble the rewrite rules for one compilation.

    The vectorization rules are width-specific (``Vec`` chunks are
    machine-width), mirroring the paper's compile-time vector-width
    setting.

    ``only_tags`` keeps only rules whose tag set intersects it (the
    phase planner's rule-subset selection).  Untagged rules -- user
    extensions the planner knows nothing about -- always survive the
    filter; tag families shipped here are ``scalar``, ``split``,
    ``vectorize``, ``mac``, ``vector-identity``, ``vector`` (union of
    the four vector families), and ``ac``.

    The shipped rules are built once per process and configuration
    and shared between calls; each call returns a fresh list.
    """
    if width < 1:
        raise ValueError(f"vector width must be positive, got {width}")
    rules = list(_shipped_rules(width, enable_scalar, enable_vector, enable_ac))
    if extra_rules:
        rules.extend(extra_rules)
    if only_tags is not None:
        wanted = frozenset(only_tags)
        rules = [rule for rule in rules if rule.has_any_tag(wanted)]
    if not rules:
        raise ValueError("ruleset is empty; enable at least one family")
    return rules


@functools.lru_cache(maxsize=64)
def _shipped_rules(
    width: int, enable_scalar: bool, enable_vector: bool, enable_ac: bool
) -> Tuple[Rewrite, ...]:
    """The shipped families for one configuration.  A rule holds no
    per-compile state (the scheduler keeps that, by rule name), so one
    set of rule objects serves every compile in the process."""
    rules: List[Rewrite] = []
    if enable_scalar:
        rules.extend(scalar_rules())
    if enable_vector:
        rules.append(list_split_rule(width))
        rules.append(binary_vectorize_rule(width))
        rules.append(unary_vectorize_rule(width))
        rules.append(mac_rule(width))
        rules.extend(vector_identity_rules(width))
    if enable_ac:
        rules.extend(ac_rules())
    return tuple(rules)
