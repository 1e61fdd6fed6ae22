"""Hypothesis sweeps of CLI configs over the README's ranges.

Inline experiments draw every model family, mean kind and design kind
against every domain, with schedules up to [8, 16], and ``cli.main`` runs
``run`` and ``check`` on them in process; ``eigen`` configs draw every family
with a quadrature grid of up to 256 nodes.  A config either runs (exit 0) or
is rejected before any work (exit 2); no failure may surface during the
work, and no error may name a non-library exception type, which ``main``
prints as ``(TypeName)``.  A config holding a value the README says is
rejected must exit 2.
"""

import json
import math
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from misspec_krige.cli import EXIT_CONFIG, EXIT_OK, main

#: the sphere series families' keys for (scale, smoothness, range)
_SERIES_KEYS = {"sphere_legendre": ("sigma1", "nu1", "kappa1"),
                "sphere_spde": ("tau", "nu", "kappa")}

#: each domain's families; the two models of a pair share the domain
_FAMILIES = {"interval": ["matern"], "torus": ["periodic"],
             "sphere": ["sphere_legendre", "sphere_spde", "sphere_chordal_matern",
                        "sphere_greatcircle_matern"]}

#: values a real field may take (the README's tested range), and the ones the
#: README says are rejected; a smoother Matern pair can fail on its Gram
#: conditioning at n <= 16, as the README says
_REAL = st.floats(0.25, 4.0)
_MATERN_NU = st.floats(0.25, 1.25)
_BAD_REAL = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, "x", True, None])
_FINITE = st.floats(-10.0, 10.0)
_BAD_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, "nan", [], True])


class _Bad:
    """A drawn value that must get its config rejected; ``_unwrap`` strips the tag."""

    def __init__(self, value):
        self.value = value


def _unwrap(value):
    """``value`` with every ``_Bad`` replaced by what it holds, and whether it held one."""
    if isinstance(value, _Bad):
        return _unwrap(value.value)[0], True
    if isinstance(value, dict):
        pairs = {key: _unwrap(v) for key, v in value.items()}
        return {key: v for key, (v, _) in pairs.items()}, any(bad for _, bad in pairs.values())
    if isinstance(value, list):
        pairs = [_unwrap(v) for v in value]
        return [v for v, _ in pairs], any(bad for _, bad in pairs)
    return value, False


def _maybe_bad(good, bad):
    """``bad``, tagged, one time in eight: most drawn configs should get to run."""
    return st.integers(0, 7).flatmap(lambda i: bad.map(_Bad) if i == 0 else good)


@st.composite
def _point(draw, dim):
    """A mean's ``slope`` or ``x0``: a number on a 1-d domain or a list of the
    domain's dimension; now and then a list of another length or a bad entry."""
    if dim == 1 and draw(st.booleans()):
        return draw(_maybe_bad(_FINITE, _BAD_FINITE))
    size = draw(st.sampled_from([dim, dim, dim, dim + 1]))
    point = draw(st.lists(_maybe_bad(_FINITE, _BAD_FINITE), min_size=size, max_size=size))
    return point if size == dim else _Bad(point)


@st.composite
def _mean(draw, dim):
    kind = draw(st.sampled_from(["none", "zero", "constant", "linear", "kink"]))
    if kind == "none":
        return None
    spec = {"kind": kind}
    if kind == "constant":
        spec["value"] = draw(_maybe_bad(_FINITE, _BAD_FINITE))
    elif kind == "linear":
        if draw(st.booleans()):
            spec["intercept"] = draw(_maybe_bad(_FINITE, _BAD_FINITE))
        if draw(st.booleans()):
            spec["slope"] = draw(_point(dim))
    elif kind == "kink":
        spec["alpha"] = draw(_maybe_bad(st.floats(0.0, 3.0),
                                        st.one_of(_BAD_FINITE, st.just(-1.0))))
        if draw(st.booleans()):
            spec["x0"] = draw(_point(dim))
        if draw(st.booleans()):
            spec["scale"] = draw(_maybe_bad(_FINITE, _BAD_FINITE))
    return spec


@st.composite
def _model(draw, family, dim):
    spec = {"family": family}
    if family == "matern":
        for key in ("sigma", "nu", "kappa"):
            spec[key] = draw(_maybe_bad(_MATERN_NU if key == "nu" else _REAL, _BAD_REAL))
    elif family == "periodic":
        if dim == 1 and draw(st.booleans()):
            indices = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
            spec["coeffs"] = {str(k): draw(_REAL) for k in indices}
        else:
            spec.update(dim=dim, scale=draw(_REAL), power=draw(st.floats(0.75, 3.0)))
        if draw(st.booleans()):
            spec["k_max"] = draw(st.integers(1, 12))
    elif family in _SERIES_KEYS:
        for key in _SERIES_KEYS[family]:
            spec[key] = draw(_maybe_bad(_REAL, _BAD_REAL))
        spec["l_max"] = draw(st.integers(1, 24))
    else:
        spec["sigma"] = draw(_REAL)
        spec["kappa"] = draw(_REAL)
        spec["nu"] = (draw(st.floats(0.1, 0.5)) if family == "sphere_greatcircle_matern"
                      else draw(_REAL))
    mean = draw(_mean(3 if family.startswith("sphere") else dim))
    if mean is not None:
        spec["mean"] = mean
    return spec


@st.composite
def experiments(draw):
    domain = draw(st.sampled_from(sorted(_FAMILIES)))
    dim = draw(st.integers(1, 3)) if domain == "torus" else 1
    true_family = draw(st.sampled_from(_FAMILIES[domain]))
    wrong_family = draw(st.sampled_from(_FAMILIES[domain]))
    experiment = {"true_model": draw(_model(true_family, dim)),
                  "wrong_model": draw(_model(wrong_family, dim)),
                  "schedule": draw(st.lists(st.integers(1, 16), min_size=1, max_size=2,
                                            unique=True).map(sorted))}
    kinds = ["default", "equispaced", "accumulating", "halton", "sphere_fibonacci"]
    if domain == "torus":
        # outside the README's tested range: the accumulating design clusters
        # sites closer than a truncated periodic kernel resolves
        kinds.remove("accumulating")
    kind = draw(st.sampled_from(kinds))
    if kind != "default":
        experiment["design"] = {"kind": kind}
        if kind == "accumulating":
            experiment["design"].update(x_star=draw(st.floats(0.26, 0.74)),
                                        q=draw(st.floats(0.2, 0.8)))
    if draw(st.booleans()):
        experiment["limit_a"] = draw(_REAL)
    return experiment


@st.composite
def eigen_configs(draw):
    domain = draw(st.sampled_from(sorted(_FAMILIES)))
    dim = draw(st.integers(1, 3)) if domain == "torus" else 1
    # a d-dimensional torus grid has k^d nodes, k >= 2
    per_axis = draw(st.integers(2, round(256 ** (1 / dim)) if domain == "torus" else 256))
    grid = {"nodes": per_axis ** dim if domain == "torus" else per_axis}
    if draw(st.booleans()):
        grid["rank_cutoff"] = draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from([-1e-9, -1.0, 1.0, 2.0, "x", math.nan]).map(_Bad)))
    family = draw(st.sampled_from(_FAMILIES[domain]))
    return {"schema": 1, "kernel": draw(_model(family, dim)), "grid": grid}


#: a valid model of each family, and one of its real parameters, which a JSON
#: ``true`` in its place must get rejected
_TRUE_PARAMETERS = [
    ({"family": "matern", "nu": 0.5}, "kappa"),
    ({"family": "periodic"}, "scale"),
    ({"family": "sphere_legendre", "nu1": 1.0}, "sigma1"),
    ({"family": "sphere_spde", "nu": 1.0}, "kappa"),
    ({"family": "sphere_chordal_matern", "nu": 0.5}, "sigma"),
    ({"family": "sphere_greatcircle_matern", "nu": 0.5}, "nu"),
]


def _with_true_parameters(test):
    """One example per family whose working model has ``true`` for a real
    parameter: the draws alone need not put a boolean where it is read."""
    for model, key in _TRUE_PARAMETERS:
        test = example(experiment={"true_model": dict(model),
                                   "wrong_model": {**model, key: _Bad(True)},
                                   "schedule": [8]})(test)
    return test


#: how ``main`` names an exception that is not one of the library's own
_FOREIGN_TYPE = re.compile(r"^(config error|numerical failure) \(\w+\)", re.M)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(experiment=experiments())
@_with_true_parameters
def test_inline_experiment_runs_or_is_rejected_up_front(tmp_path, capsys, experiment):
    pair, pair_bad = _unwrap({key: experiment[key] for key in ("true_model", "wrong_model")})
    experiment, bad = _unwrap(experiment)
    for command, config, rejected in (("run", {"schema": 1, "experiment": experiment}, bad),
                                      ("check", {"schema": 1, **pair}, pair_bad)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        argv = [command, str(path)] + (["--output", str(tmp_path / "out")]
                                       if command == "run" else [])
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG), (command, config, err)
        assert code == EXIT_CONFIG or not rejected, (command, config, err)
        assert not _FOREIGN_TYPE.search(err), (command, config, err)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(config=eigen_configs())
def test_eigen_config_runs_or_is_rejected_up_front(tmp_path, capsys, config):
    config, rejected = _unwrap(config)
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps(config))
    code = main(["eigen", str(path), "--output", str(tmp_path / "eigs.csv")])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG), (config, err)
    assert code == EXIT_CONFIG or not rejected, (config, err)
    assert not _FOREIGN_TYPE.search(err), (config, err)
