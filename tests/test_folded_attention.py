"""The folded gated attention against the former slot-wide operator.

``oracles.slot_gated_attention_batched`` projects every slot to
``d_model``-wide key, query and value rows and gates them there; the
folded operator multiplies the weights out once per call instead. Both
compute the same function, so outputs and every gradient must agree up to
summation order.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slot_gated_attention_batched
from pyrhead.autodiff import Value, mul, vsum
from pyrhead.head import (HeadConfig, assign_label, init_head_params, loss,
                          run_head)
from pyrhead.operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                               GateOverride, gated_attention_batched,
                               init_attention_params)
from pyrhead.spatial import build_index
from pyrhead.synth import INDEX_CELL, SceneConfig, generate_scene

REL_TOL = 1e-12
GATES = {"learned": None, "graph": GRAPH_GATES, "attention": ATTENTION_GATES,
         "transformer": TRANSFORMER_GATES}
# nodes of the default training step's tape on scene 0 of seed 0, leaves
# included; 276 while each level had key, query and value nodes and each
# radius three nodes
TRAIN_STEP_TAPE_NODES = 251


def _rel(a, b, floor=1e-300):
    scale = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)), floor)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def _case(seed, d_in, heads, coeff_kind, offset_scale, counts=None):
    """Random parameters and slots; some rows own no slot, some exactly one,
    unless ``counts`` gives the slots of each row."""
    rng = np.random.default_rng(seed)
    params = init_attention_params(rng, d_in, d_model=8 * heads, heads=heads)
    for _, p in params.named_parameters():     # nonzero biases everywhere
        if p.ndim == 1:
            p.data = rng.normal(0.0, 0.5, p.shape)
    # queries stay at unit scale however far the offsets reach. Unscaled,
    # 50 m offsets push gate pre-activations past 30, where 1 - sigmoid is
    # a few ulps and the reference's g * (1 - g) is off by up to ~10%
    # (the folded operator's slope is exact): roundoff of the reference,
    # not of the folding, and up to 2e-12 of a gradient's floored scale
    params.q_pos.W.data = params.q_pos.W.data / offset_scale
    if counts is None:
        n_rows = int(rng.integers(2, 9))
        counts = rng.integers(0, 7, size=n_rows)
        counts[rng.permutation(n_rows)[:2]] = (0, 1)
    n_rows = len(counts)
    row = np.repeat(np.arange(n_rows), counts)
    n = len(row)
    offsets = rng.uniform(-1.0, 1.0, size=(n, 3)) * offset_scale
    feats = Value(rng.normal(size=(n, d_in)))
    coeff = {"none": None, "array": rng.uniform(0.0, 1.0, n),
             "value": Value(rng.uniform(0.0, 1.0, n))}[coeff_kind]
    probe = rng.normal(size=(n_rows, params.d_model))
    return params, offsets, feats, coeff, row, n_rows, probe


def _run(fn, case, gates):
    params, offsets, feats, coeff, row, n_rows, probe = case
    leaves = dict(params.named_parameters())
    leaves["feats"] = feats
    if isinstance(coeff, Value):
        leaves["coeff"] = coeff
    for p in leaves.values():
        p.zero_grad()
    out = fn(offsets, feats, params, gates, coeff, row, n_rows)
    vsum(mul(out, probe)).backward()
    return out.data.copy(), {name: p.grad.copy() for name, p in leaves.items()}


@given(seed=st.integers(0, 2**32 - 1), d_in=st.integers(1, 11),
       heads=st.sampled_from([1, 4]), gates=st.sampled_from(sorted(GATES)),
       coeff_kind=st.sampled_from(["none", "array", "value"]),
       offset_scale=st.sampled_from([0.5, 5.0, 50.0]))
@settings(max_examples=120, deadline=None)
def test_folded_matches_slot_oracle(seed, d_in, heads, gates, coeff_kind,
                                    offset_scale):
    _check_against_oracle(_case(seed, d_in, heads, coeff_kind, offset_scale),
                          GATES[gates])


def _check_against_oracle(case, gates):
    got_out, got = _run(gated_attention_batched, case, gates)
    want_out, want = _run(slot_gated_attention_batched, case, gates)
    empty = np.setdiff1d(np.arange(case[5]), case[4])
    assert np.all(got_out[empty] == 0.0)
    assert _rel(got_out, want_out) <= REL_TOL
    # each gradient against its own scale, floored at a thousandth of the
    # largest: w_head.b (and, under pinned gates, some other biases) shifts
    # every logit of a grid point alike, so its gradient is analytically
    # zero and both sides are roundoff
    floor = 1e-3 * max(float(np.max(np.abs(g), initial=0.0)) for g in want.values())
    bad = {name: _rel(got[name], want[name], floor) for name in want}
    bad = {k: v for k, v in bad.items() if not v <= REL_TOL}
    assert not bad, bad
    if gates is not None:
        # pinned gates are constants: their parameters get exactly zero
        for lp in ("gate_pos", "gate_key", "gate_cross", "gate_value"):
            assert not np.any(got[f"{lp}.W"]) and not np.any(got[f"{lp}.b"])


# level cap of the default pyramid (PyramidLevelConfig.max_neighbors)
CAP = 16


@pytest.mark.parametrize("gates", sorted(GATES))
@pytest.mark.parametrize("seed", range(4))
def test_block_extremes_match_slot_oracle(seed, gates):
    """Row blocks at their extremes: one row at the cap beside rows of one
    slot (the block is mostly pads), and rows that all fill it."""
    one_at_cap = np.ones(7, dtype=np.int64)
    one_at_cap[seed % 7] = CAP
    for counts in (one_at_cap, np.full(5, seed + 2)):
        for coeff_kind in ("none", "value"):
            _check_against_oracle(_case(seed, 9, 4, coeff_kind, 5.0, counts),
                                  GATES[gates])


@pytest.mark.parametrize("gates", sorted(GATES))
@pytest.mark.parametrize("seed", range(4))
def test_zero_coefficients_are_not_pads(seed, gates):
    """Real slots with coefficient exactly 0, a whole row of them included:
    they stay in their row's softmax, so the other slots' weights and the
    coefficient gradients match the oracle."""
    case = list(_case(seed, 9, 4, "value", 5.0, np.array([3, 0, 5, 1, 4])))
    coeff, row = case[3], case[4]
    coeff.data[row == 0] = 0.0
    coeff.data[np.flatnonzero(row == 2)[::2]] = 0.0
    _check_against_oracle(tuple(case), GATES[gates])


PINNED = {"graph": GRAPH_GATES, "attention": ATTENTION_GATES,
          "transformer": TRANSFORMER_GATES, "half": GateOverride(0.5, 0.5, 0.5, 0.5)}


@pytest.mark.parametrize("gates", sorted(PINNED))
@pytest.mark.parametrize("seed", range(3))
def test_pinned_gates_give_gate_parameters_zero_gradient(seed, gates):
    """Pinned gates run the trainable-gate path with a zero slope: every
    gate parameter's gradient is exactly 0 (as for a node the tape never
    reaches), and every other gradient still matches the oracle."""
    for coeff_kind in ("none", "array", "value"):
        _check_against_oracle(_case(seed, 9, 4, coeff_kind, 5.0), PINNED[gates])


@pytest.mark.parametrize("z", [-40.0, 40.0])
def test_gate_gradient_exact_far_from_boundary(z):
    """One slot, so w = 1 and d out / d g_value sums q = q_pos.b = ones over
    d_model = 8 lanes exactly; the value gate's bias gradient is then
    8 sigmoid'(z), which g * (1 - g) from a rounded g puts at 0 for z = +40."""
    params = init_attention_params(np.random.default_rng(0), 2, d_model=8, heads=2)
    params.q_pos.W.data = np.zeros_like(params.q_pos.W.data)
    params.q_pos.b.data = np.ones(8)
    params.gate_value.W.data = np.zeros_like(params.gate_value.W.data)
    params.gate_value.b.data = np.array([z])
    out = gated_attention_batched(np.zeros((1, 3)), Value(np.ones((1, 2))), params)
    vsum(out).backward()
    e = math.exp(-40.0)
    want = 8.0 * e / (1.0 + e) ** 2
    assert abs(params.gate_value.b.grad[0] - want) <= 1e-15 * want


def test_default_training_step_tape_size():
    """One attention node per level and one radius node per level."""
    scene = generate_scene(SceneConfig(seed=0), 0)
    cfg = HeadConfig()
    params = init_head_params(cfg, 0)
    dets, _ = run_head(cfg, params, scene.ps, build_index(scene.ps, INDEX_CELL),
                       scene.proposals, cfg.tau_start)
    targets = [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive), scene.gt_boxes[g])
               for p, g in zip(scene.proposals, scene.proposal_gt)]
    seen, todo = set(), [loss(dets, targets, cfg)]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    assert len(seen) == TRAIN_STEP_TAPE_NODES
