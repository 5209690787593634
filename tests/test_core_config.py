"""Tests for RXConfig, the key decomposition and the serving settings' validation."""

import pytest

from repro.core.config import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    UpdatePolicy,
)
from repro.core.rx_index import RXIndex
from repro.serve import IndexService, RetryPolicy
from repro.workloads import dense_shuffled_keys


class TestKeyDecomposition:
    def test_default_is_paper_split(self):
        decomposition = KeyDecomposition()
        assert (decomposition.x_bits, decomposition.y_bits, decomposition.z_bits) == (23, 23, 18)
        assert decomposition.total_bits == 64

    def test_max_key_full_range(self):
        assert KeyDecomposition().max_key == (1 << 64) - 1

    def test_max_key_partial_range(self):
        assert KeyDecomposition(16, 10, 0).max_key == (1 << 26) - 1

    def test_component_limited_to_23_bits(self):
        with pytest.raises(ValueError):
            KeyDecomposition(x_bits=24)

    def test_x_component_required(self):
        with pytest.raises(ValueError):
            KeyDecomposition(x_bits=0, y_bits=23, z_bits=18)

    def test_label_round_trip(self):
        decomposition = KeyDecomposition(20, 6, 0)
        assert decomposition.label() == "20+6+0"
        assert KeyDecomposition.from_label("20+6+0") == decomposition

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            KeyDecomposition.from_label("20+6")


class TestRXConfigValidation:
    def test_paper_default_is_valid(self):
        RXConfig.paper_default().validate()

    def test_default_matches_selected_configuration(self):
        config = RXConfig.paper_default()
        assert config.key_mode is KeyMode.THREE_D
        assert config.primitive is PrimitiveType.TRIANGLE
        assert config.point_ray_mode is PointRayMode.PERPENDICULAR
        assert config.range_ray_mode is RangeRayMode.PARALLEL_FROM_OFFSET
        assert config.compaction is True
        assert config.update_policy is UpdatePolicy.REBUILD

    def test_extended_mode_rejects_spheres(self):
        config = RXConfig(
            key_mode=KeyMode.EXTENDED,
            primitive=PrimitiveType.SPHERE,
            point_ray_mode=PointRayMode.PERPENDICULAR,
            range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO,
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_extended_mode_rejects_offset_rays(self):
        with pytest.raises(ValueError):
            RXConfig(
                key_mode=KeyMode.EXTENDED,
                point_ray_mode=PointRayMode.PARALLEL_FROM_OFFSET,
            ).validate()
        with pytest.raises(ValueError):
            RXConfig(
                key_mode=KeyMode.EXTENDED,
                range_ray_mode=RangeRayMode.PARALLEL_FROM_OFFSET,
            ).validate()

    def test_compaction_conflicts_with_updates(self):
        with pytest.raises(ValueError):
            RXConfig(compaction=True, allow_updates=True).validate()

    def test_refit_requires_update_flag(self):
        with pytest.raises(ValueError):
            RXConfig(update_policy=UpdatePolicy.REFIT, allow_updates=False, compaction=False).validate()

    def test_with_updates_enabled_helper(self):
        config = RXConfig.paper_default().with_updates_enabled()
        config.validate()
        assert config.allow_updates and not config.compaction
        assert config.update_policy is UpdatePolicy.REFIT

    def test_sphere_radius_bounds(self):
        with pytest.raises(ValueError):
            RXConfig(sphere_radius=0.6).validate()

    def test_value_bytes_restricted(self):
        with pytest.raises(ValueError):
            RXConfig(value_bytes=2).validate()

    def test_max_rays_per_range_positive(self):
        with pytest.raises(ValueError):
            RXConfig(max_rays_per_range=0).validate()


    def test_legacy_build_backend_is_dropped_on_load(self):
        config = RXConfig().with_delta_updates(shard_bits=4)
        assert "build_backend" not in config.as_dict()
        for legacy in ("fork", "shm"):
            data = {**config.as_dict(), "build_backend": legacy}
            assert RXConfig.from_dict(data) == config
        with pytest.raises(ValueError, match="build_backend"):
            RXConfig.from_dict({**config.as_dict(), "build_backend": "threads"})
        with pytest.raises(TypeError):
            RXConfig(build_backend="shm")

    def test_legacy_serve_keys_are_dropped_on_load(self):
        config = RXConfig.paper_default()
        legacy = {
            "serve_max_batch": 4096,
            "serve_max_wait": 1e-3,
            "serve_cache_capacity": 4096,
            "serve_deadline": None,
            "serve_max_queue": None,
            "serve_retry_max": 3,
            "serve_retry_backoff": 1e-3,
            "serve_retry_factor": 2.0,
            "serve_retry_jitter": 0.1,
        }
        assert not any(key.startswith("serve_") for key in config.as_dict())
        assert RXConfig.from_dict({**config.as_dict(), **legacy}) == config
        with pytest.raises(ValueError, match="serve_max_batches"):
            RXConfig.from_dict({**config.as_dict(), "serve_max_batches": 1})
        with pytest.raises(TypeError):
            RXConfig(serve_max_batch=4096)


@pytest.fixture(scope="module")
def index():
    index = RXIndex(RXConfig.paper_default())
    index.build(dense_shuffled_keys(256, seed=70))
    return index


class TestResilienceKnobValidation:
    """The serving settings are ``IndexService`` constructor arguments,
    validated by the component that owns each one."""

    def test_defaults_are_valid(self, index):
        service = IndexService(index)
        assert service.deadline is None
        assert service.admission.max_queue is None

    def test_deadline_must_be_positive_finite(self, index):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline"):
                IndexService(index, deadline=bad)

    def test_max_wait_nan_rejected(self, index):
        with pytest.raises(ValueError, match="max_wait"):
            IndexService(index, max_wait=float("nan"))

    def test_max_wait_exceeding_deadline_rejected(self, index):
        with pytest.raises(ValueError, match="max_wait.*deadline"):
            IndexService(index, deadline=1e-3, max_wait=5e-3)

    def test_zero_max_wait_with_deadline_is_allowed(self, index):
        # immediate flush always fits any deadline
        IndexService(index, deadline=1e-3, max_wait=0.0)

    def test_queue_bound_must_be_at_least_one(self, index):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_queue"):
                IndexService(index, max_queue=bad)

    def test_retry_knob_validation(self, index):
        for field, bad in (
            ("max_retries", -1),
            ("backoff_base", -1e-3),
            ("backoff_base", float("nan")),
            ("backoff_factor", 0.5),
            ("backoff_factor", float("nan")),
            ("jitter", -0.1),
            ("jitter", 1.5),
            ("jitter", float("nan")),
        ):
            with pytest.raises(ValueError, match=field):
                IndexService(index, retry=RetryPolicy(**{field: bad}))
