"""The config schema table: README agreement and a mutation fuzz of every
key path through the four subcommands."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spincm.cli import (EXIT_CONFIG, EXIT_PASS, SCHEMA, _BY_FAMILY,
                        _REQUIRED, build_initial, main, parse_config)
from spincm.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_table() -> dict:
    """key path -> default cell of the README's configuration table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration reference", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[2]
    return rows


def test_readme_table_matches_schema():
    rows = readme_table()
    assert list(rows) == [path for path, _, _ in SCHEMA]
    for path, _, default in SCHEMA:
        want = ("required" if default is _REQUIRED else "by family"
                if default is _BY_FAMILY else f"`{json.dumps(default)}`")
        assert rows[path] == want, path


def test_readme_json_examples_parse_and_build():
    blocks = re.findall(r"```json\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        config = parse_config(json.loads(block))
        assert config.initial is not None
        build_initial(config, config.system())


# -- mutation fuzz -----------------------------------------------------------
#
# A cheap, valid A_1 config with every section present, for each family (the
# lattice is read by the elliptic one only).  Each run replaces one key path
# by a hostile value, deletes it, or adds an unknown key next to it, and runs
# one subcommand through main.

BASE = {"family": "elliptic", "rank": 1, "seed": 3,
        "lattice": {"omega1": 2.0, "omega2": [0.0, 2.2]},
        "initial": {"preset": "spinless(0.5)", "q": [0.7], "p": [0.3]},
        "integration": {"t_final": 0.2, "n_points": 3},
        "outputs": {"z_samples": [[0.3, 0.2]]}}
DELETE, EXTRA = "<delete>", "<extra key>"
NAN, INF = float("nan"), float("inf")
# No key accepts any of these: the run must end in a config error.
MUST_REJECT = [True, False, NAN, INF, -INF, [NAN], [True], {"bogus": 1},
               EXTRA]
# Huge and subnormal finite numbers, alone and as a rank-1 coordinate list:
# valid wherever a finite number is, so they reach the arithmetic.
MAGNITUDES = [sign * m for m in (1e15, 1e200, 1e300) for sign in (1, -1)] \
    + [5e-324]
HOSTILE = MUST_REJECT + [None, DELETE, "x", 5, 0, -1, [], [5], [[1, 2, 3]],
                         "spinless(nan)", "../x"] + MAGNITUDES \
    + [[m] for m in MAGNITUDES]
FAMILIES = ("rational", "trigonometric", "elliptic")
COMMANDS = ("info", "simulate", "verify", "reduce")


def mutated(doc: dict, path: str, action) -> dict:
    doc = copy.deepcopy(doc)
    *parents, key = path.split(".")
    section = doc
    for name in parents:
        section = section[name]
    if action is DELETE:
        section.pop(key, None)
    elif action is EXTRA:
        section["bogus"] = 1
    else:
        section[key] = action
    return doc


@pytest.fixture(scope="module")
def unreduced_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    cfg = out / "base.json"
    cfg.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_PASS
    return str(out / "trajectory.csv")


def run(command: str, data: dict, trajectory: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "config.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        argv = {"info": ["info"], "simulate": ["simulate"],
                "verify": ["verify", "--suite", "cdybe"],
                "reduce": ["reduce", trajectory]}[command]
        argv = argv + ["--config", str(cfg)]
        if command != "info":
            argv += ["--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(FAMILIES),
       path=st.sampled_from([path for path, _, _ in SCHEMA]),
       action=st.sampled_from(HOSTILE), command=st.sampled_from(COMMANDS))
@example(family="elliptic", path="seed", action=-1, command="verify")
@example(family="elliptic", path="initial.preset", action=5,
         command="simulate")
@example(family="elliptic", path="outputs.trajectory_csv", action=5,
         command="simulate")
@example(family="elliptic", path="initial.q", action=[NAN], command="simulate")
@example(family="elliptic", path="outputs.z_samples", action=[NAN],
         command="simulate")
@example(family="elliptic", path="outputs.z_samples", action=[],
         command="simulate")
@example(family="elliptic", path="lattice.omega1", action=NAN, command="info")
@example(family="elliptic", path="lattice.omega2", action=NAN,
         command="verify")
@example(family="elliptic", path="rank", action=True, command="info")
@example(family="elliptic", path="seed", action=True, command="verify")
@example(family="elliptic", path="initial.q", action=[True],
         command="simulate")
@example(family="elliptic", path="initial.preset", action="spinless(nan)",
         command="simulate")
@example(family="elliptic", path="lattice.omega1", action=5e-324,
         command="info")
@example(family="trigonometric", path="initial.q", action=[1e15],
         command="simulate")
@example(family="rational", path="integration.tol", action=1e300,
         command="simulate")
def test_mutated_config_never_ends_in_a_traceback(unreduced_csv, family,
                                                   path, action, command):
    # a run to |t_final| = 1e15 makes MAX_STEPS steps: minutes per example
    assume(not (path == "integration.t_final" and action in MAGNITUDES))
    data = mutated(asdict(parse_config({**BASE, "family": family})), path,
                   action)
    try:
        config = parse_config(data)
    except ConfigError:
        pass
    else:
        assert parse_config(asdict(config)) == config
    code, err = run(command, data, unreduced_csv)
    if code == EXIT_CONFIG:
        assert err.startswith("spincm: ")
    else:
        assert code in (0, 1, 3)
    if repr(action) in map(repr, MUST_REJECT):   # repr: nan != nan
        assert code == EXIT_CONFIG, (path, action, command, err)
