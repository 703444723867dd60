"""Frozen records: construction, immutability, equality and ``replace`` for
every record class in the package."""

import glob
import os

import numpy as np
import pytest

from nearlink import beamforming, geometry, kernel, mimo, objective, panels, placement, scenario
from nearlink import schema
from nearlink.record import MISSING, Record, replace

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
LAM = 299792458.0 / 28.0e9

# The records that compare by identity, as their dataclasses did with
# eq=False: each holds arrays, or is bound to what it was built from.
IDENTITY = {
    beamforming.Point,
    beamforming.WeightVector,
    beamforming.GainGrid,
    geometry.ElementLayout,
    kernel._FactorizedPlan,
    mimo.SingularSpectrum,
    placement.PlacementResult,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _sections(obj):
    # obj and every record below it.
    yield obj
    for value in obj._values():
        if isinstance(value, Record):
            yield from _sections(value)


def _instances():
    """One instance of each of the package's record classes."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scenario"))):
        for obj in _sections(schema.load_scenario(path)):
            found.setdefault(type(obj), obj)
    found[schema._RangeSpan] = schema._RangeSpan(1.0, 2.0)
    spec = panels.PanelSpec(4, 4, 0.5 * LAM, 3.0)
    layout = geometry.make_distributed_panels(spec, [[-30.0, 0.0, 0.0], [30.0, 0.0, 0.0]])
    focal = beamforming.point_at(2.0e4, 0.05)
    weights = beamforming.delay_and_sum_weights(layout, focal, LAM)
    grid = beamforming.gain_pattern_sweep(layout, weights, LAM, np.linspace(0.0, 0.1, 5), [2.0e4])
    targets = kernel.unit_vectors(np.linspace(0.0, 0.1, 5), 0.0) * 2.0e4
    plan = kernel._factorized_plan(layout, targets, LAM)
    assert plan is not None
    direction = objective.Direction(0.1, 0.2)
    scan = objective.PlacementObjective(direction, 0.01, (-0.1, 0.3), 100)
    found.update({
        panels.PanelSpec: spec,
        geometry.ElementLayout: layout,
        beamforming.Point: focal,
        beamforming.WeightVector: weights,
        beamforming.GainGrid: grid,
        beamforming.DishSpec: beamforming.REFERENCE_DISH_SMALL,
        kernel.BeamKernel: grid.kernel,
        kernel._FactorizedPlan: plan,
        mimo.SingularSpectrum: mimo.SingularSpectrum(np.array([2.0, 1.0])),
        objective.Direction: direction,
        objective.PlacementObjective: scan,
        placement.PlacementResult: placement.PlacementResult(np.zeros((2, 3)), -3.0, 7, 10),
        scenario.RunReport: scenario.RunReport("0" * 16, 0.5, ("a.csv",), {"x": 1.0}, {}),
    })
    return found


INSTANCES = _instances()


def test_every_record_class_has_an_instance_here():
    assert set(_subclasses(Record)) == set(INSTANCES)
    assert len(INSTANCES) == 27


@pytest.mark.parametrize("cls", sorted(INSTANCES, key=lambda c: c.__qualname__), ids=str)
def test_records_are_frozen_keep_their_equality_and_replace_to_equal_copies(cls):
    obj = INSTANCES[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError, match="frozen"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError, match="frozen"):
            delattr(obj, name)
    copy = replace(obj)
    assert copy is not obj and type(copy) is cls
    for name, value in zip(cls._fields, copy._values()):
        mine = getattr(obj, name)
        assert value is mine or np.array_equal(value, mine) or value == mine, name
    if cls in IDENTITY:
        # Identity: a copy with equal fields is another record.
        assert copy != obj and obj == obj
        assert hash(obj) == object.__hash__(obj)
    else:
        assert copy == obj and not copy != obj
        if not isinstance(obj, scenario.RunReport):  # it holds dicts
            assert hash(copy) == hash(obj)


def test_equal_fields_of_another_class_are_not_equal():
    # As with dataclasses, only records of one class compare by value.
    sweep = INSTANCES[schema.SvdSweepAnalysis]
    dof = schema.DofSweepAnalysis(**{name: getattr(sweep, name) for name in sweep._fields})
    assert dof != sweep and sweep != dof
    assert kernel.BeamKernel("exact", 0.0) == kernel.EXACT_KERNEL


def test_construction_takes_positions_keywords_and_defaults():
    assert list(schema.DofSweepAnalysis._fields) == [
        "range_start_m", "range_stop_m", "n_ranges", "tau", "spacing"
    ]
    ana = schema.DofSweepAnalysis(1.0, 2.0, 3, tau=0.1)
    assert (ana.range_start_m, ana.range_stop_m, ana.n_ranges, ana.tau) == (1.0, 2.0, 3, 0.1)
    assert ana.spacing == "log"
    assert ana._fields["range_start_m"].default is MISSING
    assert ana._fields["spacing"].default == "log"
    assert replace(ana, spacing="linear").spacing == "linear"
    for args, kwargs in (
        ((1.0,), {}),
        ((1.0, 2.0, 3, 0.1, "log", "extra"), {}),
        ((1.0, 2.0, 3, 0.1), {"n_ranges": 4}),
        ((1.0, 2.0, 3, 0.1), {"bogus": 1}),
    ):
        with pytest.raises(TypeError):
            schema.DofSweepAnalysis(*args, **kwargs)
    with pytest.raises(TypeError):
        replace(ana, bogus=1)


def test_post_init_checks_run_on_construction_and_replace():
    spec = panels.PanelSpec(2, 2, 0.5)
    with pytest.raises(ValueError, match="positive finite"):
        replace(spec, spacing=-1.0)
    with pytest.raises(ValueError, match="at least a 1x1"):
        panels.PanelSpec(0, 2, 0.5)
    assert repr(spec) == "PanelSpec(rows=2, cols=2, spacing=0.5, element_gain_dbi=0.0)"
