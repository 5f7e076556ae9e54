"""Unit tests for the system-variant configuration presets."""

import dataclasses

import pytest

from repro.common.config import PRESETS, SystemConfig


class TestPresets:
    def test_ic_is_all_stock(self):
        config = SystemConfig.ic()
        assert config.name == "IC"
        assert not config.fixed_join_estimation
        assert not config.filter_correlate_rule
        assert not config.cost_model_fixes
        assert not config.two_phase_optimization
        assert not config.broadcast_join_mapping
        assert not config.hash_join
        assert not config.join_condition_simplification
        assert config.variant_fragments == 1

    def test_ic_plus_enables_sections_4_and_5(self):
        config = SystemConfig.ic_plus()
        assert config.name == "IC+"
        assert config.fixed_join_estimation
        assert config.filter_correlate_rule
        assert config.cost_model_fixes
        assert config.two_phase_optimization
        assert config.broadcast_join_mapping
        assert config.hash_join
        assert config.join_condition_simplification
        assert config.variant_fragments == 1

    def test_ic_plus_m_adds_dual_threading(self):
        config = SystemConfig.ic_plus_m()
        assert config.name == "IC+M"
        assert config.variant_fragments == 2
        assert config.hash_join  # inherits everything from IC+

    def test_site_count_parameter(self):
        assert SystemConfig.ic(sites=8).sites == 8
        assert SystemConfig.ic_plus_m(sites=8, threads=3).variant_fragments == 3

    def test_presets_registry(self):
        assert set(PRESETS) == {"IC", "IC+", "IC+M"}
        assert PRESETS["IC+"](4).name == "IC+"

    def test_with_override(self):
        config = SystemConfig.ic_plus().with_(hash_join=False)
        assert not config.hash_join
        assert config.fixed_join_estimation  # others untouched

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig.ic().sites = 10

    def test_no_new_field_without_deleting_one(self):
        """Every field is an option some caller varies; adding one means
        deleting one (or showing why both must vary)."""
        assert len(dataclasses.fields(SystemConfig)) == 31

    def test_q20_defect_present_in_all_presets(self):
        """The paper leaves the Q20 bug unresolved in every variant."""
        for maker in PRESETS.values():
            assert not maker(4).q20_defect_fixed
