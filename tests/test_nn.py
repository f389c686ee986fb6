"""Parameter containers: construction rules and forward conventions."""
import numpy as np
import pytest

from pyrhead.autodiff import Value
from pyrhead.gradcheck import tiny_head_config
from pyrhead.head import HeadConfig, init_head_params
from pyrhead.nn import LinearParams, MLPParams, init_linear, init_mlp
from pyrhead.synth import single_level_baseline


def test_mlp_widths_must_chain():
    rng = np.random.default_rng(0)
    good = init_mlp(rng, [4, 8, 2])
    assert good.d_in == 4 and good.d_out == 2
    with pytest.raises(ValueError):
        MLPParams([init_linear(rng, 4, 8), init_linear(rng, 9, 2)])
    with pytest.raises(ValueError):
        init_mlp(rng, [4])


def test_hidden_layers_are_rectified():
    rng = np.random.default_rng(1)
    mlp = init_mlp(rng, [3, 5, 2])
    # force strongly negative hidden pre-activations: output becomes bias-only
    mlp.layers[0].W.data = -100.0 * np.abs(mlp.layers[0].W.data)
    mlp.layers[0].b.data = np.zeros(5)
    out = mlp(np.ones((1, 3)))
    np.testing.assert_allclose(out.data.reshape(-1), mlp.layers[1].b.data,
                               atol=1e-12)


def test_zero_last_layer_init():
    rng = np.random.default_rng(2)
    mlp = init_mlp(rng, [4, 8, 1], zero_last=True)
    np.testing.assert_array_equal(mlp.layers[-1].W.data, np.zeros((8, 1)))
    out = mlp(Value(np.ones(4)))
    assert out.item() == 0.0


def test_named_parameters_enumeration():
    rng = np.random.default_rng(3)
    mlp = init_mlp(rng, [2, 3, 1])
    names = [n for n, _ in mlp.named_parameters("net.")]
    assert names == ["net.layers0.W", "net.layers0.b",
                     "net.layers1.W", "net.layers1.b"]


def _reachable_values(obj, found: list) -> list:
    """Every ``Value`` reached from ``obj`` through attributes, lists, tuples
    and dicts, in visiting order, with repeats."""
    if isinstance(obj, Value):
        found.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable_values(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _reachable_values(item, found)
    elif hasattr(obj, "__dict__"):
        _reachable_values(vars(obj), found)
    return found


@pytest.mark.parametrize("make_cfg", [
    HeadConfig,
    lambda: single_level_baseline(HeadConfig()),
    tiny_head_config,
], ids=["default", "baseline", "gradcheck"])
def test_head_parameters_are_every_reachable_value_once(make_cfg):
    """The walk yields each tensor the head's params hold, once, with
    unique names, and its top-level groups come in field order."""
    cfg = make_cfg()
    params = init_head_params(cfg, 0)
    named = list(params.named_parameters())
    walked = [id(p) for _, p in named]
    reached = [id(p) for p in _reachable_values(params, [])]
    assert len(set(walked)) == len(walked) == len(reached)
    assert set(walked) == set(reached)
    assert len({n for n, _ in named}) == len(named)
    levels = range(len(cfg.pyramid.levels))
    assert list(params.parameter_groups()) == [
        *(f"attention{i}" for i in levels), "context", "radius",
        *(f"reduce{i}" for i in levels), "fusion", "cls_head", "reg_head"]


def test_linear_params_shape_properties():
    rng = np.random.default_rng(4)
    lp = init_linear(rng, 6, 3)
    assert lp.d_in == 6 and lp.d_out == 3
    y = lp(np.zeros((2, 6)))
    np.testing.assert_allclose(y.data, np.broadcast_to(lp.b.data, (2, 3)),
                               atol=1e-15)
