"""Tests for repro.control.factory."""

import pytest

from repro.control.cap_bp import CapBpController
from repro.control.factory import (
    CONTROLLER_NAMES,
    make_controller,
    make_network_controller,
)
from repro.control.fixed_time import FixedTimeController
from repro.control.original_bp import OriginalBpController
from repro.core.util_bp import UtilBpController


class TestMakeController:
    def test_names_registered(self):
        assert set(CONTROLLER_NAMES) == {
            "util-bp",
            "cap-bp",
            "original-bp",
            "fixed-time",
        }

    def test_util_bp(self, intersection):
        ctrl = make_controller("util-bp", intersection)
        assert isinstance(ctrl, UtilBpController)

    def test_util_bp_with_config_params(self, intersection):
        ctrl = make_controller(
            "util-bp", intersection, alpha=-3.0, beta=-4.0, keep_margin=2.0
        )
        assert ctrl.config.alpha == -3.0
        assert ctrl.config.keep_margin == 2.0

    def test_util_bp_unknown_param_rejected(self, intersection):
        with pytest.raises(TypeError):
            make_controller("util-bp", intersection, period=10)

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("cap-bp", CapBpController),
            ("original-bp", OriginalBpController),
            ("fixed-time", FixedTimeController),
        ],
    )
    def test_fixed_slot_controllers(self, intersection, name, cls):
        ctrl = make_controller(name, intersection, period=16)
        assert isinstance(ctrl, cls)
        assert ctrl.period == 16

    @pytest.mark.parametrize("name", ["cap-bp", "original-bp", "fixed-time"])
    def test_period_required(self, intersection, name):
        with pytest.raises(TypeError):
            make_controller(name, intersection)

    def test_unknown_name_rejected(self, intersection):
        with pytest.raises(ValueError, match="unknown controller"):
            make_controller("magic", intersection)


class TestMakeNetworkController:
    def test_covers_all_intersections(self, grid3x3):
        net_ctrl = make_network_controller("cap-bp", grid3x3, period=16)
        assert set(net_ctrl.controllers) == set(grid3x3.intersections)

    def test_controllers_independent(self, grid3x3):
        net_ctrl = make_network_controller("util-bp", grid3x3)
        instances = list(net_ctrl.controllers.values())
        assert len(set(map(id, instances))) == len(instances)


@pytest.mark.parametrize("engine", ["meso-counts", "meso-vec"])
def test_util_bp_rejects_mini_slot_parameter(engine):
    # The runner's ``mini_slot`` sets the control cadence; as a
    # controller parameter it would be a silent no-op that still forks
    # the spec hash.
    from repro.experiments.runner import run_scenario
    from repro.scenarios import build_named_scenario

    with pytest.raises(TypeError, match="mini_slot"):
        run_scenario(
            build_named_scenario("steady-3x3", seed=1),
            controller="util-bp",
            controller_params={"mini_slot": 2.0},
            engine=engine,
            duration=10.0,
        )
