"""The package exports its library names; its modules are reached as
``boxdet.<module>``."""

import numpy as np

import boxdet

LIBRARY = {
    "BoundaryTag", "BoxConstraint", "BoxdetError", "DimensionMismatchError",
    "ExperimentConfig", "ExperimentRow", "FINITE", "IntegratorConfig", "IntegratorMethod",
    "Interval", "InvalidConfigError", "McEstimate", "OutOfBoxError",
    "QuadratureDimensionError", "RankDeficientError", "RngStream", "back_substitute",
    "box_babai", "box_probability", "box_rounding", "classify", "p_bb_bounds",
    "p_bb_deterministic", "p_bb_uniform", "p_br_deterministic", "p_br_uniform",
    "parse_pattern", "phi", "qr_positive", "run_experiment",
}


def test_all_holds_the_library_names():
    assert set(boxdet.__all__) == LIBRARY


def test_star_import_keeps_a_callers_names():
    # boxdet.rng is a module: exported, it would replace the caller's generator.
    namespace = {"rng": np.random.default_rng(0)}
    exec("from boxdet import *", namespace)
    assert isinstance(namespace["rng"], np.random.Generator)
    assert namespace["p_br_uniform"] is boxdet.p_br_uniform
