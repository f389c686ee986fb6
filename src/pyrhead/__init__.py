"""Pyramid RoI head for two-stage 3D detection from sparse point sets.

Builds multi-level RoI grids around oriented boxes, aggregates point
features at every grid point with a unified gated attention operator, and
learns each level's aggregation radius through a differentiable soft
membership. Includes a tape-based autodiff substrate, an exact spatial
index, a synthetic-scene training harness, and a CLI.
"""

from .autodiff import Value, finite_diff_grad, rel_error
from .darp import (ContextAggregatorParams, RadiusHeadParams,
                   TemperatureSchedule, context_embedding, predict_radius,
                   temperature)
from .geometry import (Box3D, GridSpec, PyramidConfig, PyramidLevelConfig,
                       default_pyramid_config, pyramid_grid_points,
                       pyramid_point_count)
from .head import (CONFIG_SCHEMA_VERSION, Detection, HeadConfig, HeadParams,
                   extract_roi_features, init_head_params, loss, refine,
                   run_head)
from .operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                        AttentionParams, GateOverride, NeighborBundle,
                        hard_membership, pool_feature, roi_grid_attention,
                        roi_grid_attention_darp, sampling_range,
                        soft_radius_coeff)
from .spatial import PointSet, SpatialIndex, build_index, gather_level
from .synth import (Scene, SceneConfig, evaluate, generate_scene,
                    generate_scenes, single_level_baseline, sparsity_stats,
                    train_toy)

__version__ = "0.1.0"

__all__ = [
    "Value", "finite_diff_grad", "rel_error",
    "Box3D", "GridSpec", "PyramidConfig", "PyramidLevelConfig",
    "default_pyramid_config", "pyramid_grid_points", "pyramid_point_count",
    "PointSet", "SpatialIndex", "build_index", "gather_level",
    "AttentionParams", "GateOverride", "NeighborBundle",
    "GRAPH_GATES", "ATTENTION_GATES", "TRANSFORMER_GATES",
    "pool_feature", "roi_grid_attention", "roi_grid_attention_darp",
    "sampling_range", "soft_radius_coeff", "hard_membership",
    "ContextAggregatorParams", "RadiusHeadParams", "TemperatureSchedule",
    "context_embedding", "predict_radius", "temperature",
    "CONFIG_SCHEMA_VERSION", "HeadConfig", "HeadParams", "Detection",
    "extract_roi_features", "init_head_params", "refine", "run_head", "loss",
    "Scene", "SceneConfig", "generate_scene", "generate_scenes",
    "sparsity_stats", "train_toy", "evaluate", "single_level_baseline",
    "__version__",
]
