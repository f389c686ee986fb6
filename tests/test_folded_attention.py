"""The folded gated attention against the former slot-wide operator.

``oracles.slot_gated_attention_batched`` projects every slot to
``d_model``-wide key, query and value rows and gates them there; the
folded operator multiplies the weights out once per call instead. Both
compute the same function, so outputs and every gradient must agree up to
summation order.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slot_gated_attention_batched
from pyrhead.autodiff import Value, mul, vsum
from pyrhead.head import (HeadConfig, assign_label, init_head_params, loss,
                          run_head)
from pyrhead.operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                               gated_attention_batched, init_attention_params)
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


def _case(seed, d_in, heads, coeff_kind, offset_scale):
    """Random parameters and slots; some rows own no slot, some exactly one."""
    rng = np.random.default_rng(seed)
    params = init_attention_params(rng, d_in, d_model=8 * heads, heads=heads)
    for _, p in params.named_parameters():     # nonzero biases everywhere
        if p.ndim == 1:
            p.data = rng.normal(0.0, 0.5, p.shape)
    # queries stay at unit scale however far the offsets reach. Unscaled,
    # 50 m offsets push gate pre-activations past 30, where 1 - sigmoid is
    # a few ulps in both implementations and a one-ulp difference in the
    # pre-activation moves g * (1 - g) by ~10%: roundoff of the reference,
    # not of the folding, and up to 2e-12 of a gradient's floored scale
    params.q_pos.W.data = params.q_pos.W.data / offset_scale
    n_rows = int(rng.integers(2, 9))
    counts = rng.integers(0, 7, size=n_rows)
    counts[rng.permutation(n_rows)[:2]] = (0, 1)
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
    case = _case(seed, d_in, heads, coeff_kind, offset_scale)
    got_out, got = _run(gated_attention_batched, case, GATES[gates])
    want_out, want = _run(slot_gated_attention_batched, case, GATES[gates])
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
    if gates != "learned":
        for lp in ("gate_pos", "gate_key", "gate_cross", "gate_value"):
            assert not np.any(got[f"{lp}.W"]) and not np.any(got[f"{lp}.b"])


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
