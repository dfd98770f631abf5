"""Randomized invariants of the config format: a valid config survives the
text round trip with its hash, the hash sees every field, any JSON value at a
known key either parses or is rejected with that key named, and any config
text either parses or is rejected with exit code 1 and no traceback."""

import contextlib
import dataclasses
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmqubit import cli
from nmqubit.config import (
    _ANCILLA_KEYS,
    _KEYS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    preset,
    serialize_config,
    with_truncation,
)
from nmqubit.slh import FIELD_MODES, QUBIT_COUPLING_KINDS, AncillaParams

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
scales = st.complex_numbers(allow_nan=False, allow_infinity=False)
#: any text a file can hold; the default alphabet costs about 2 s to build
text = st.text(st.characters(exclude_categories=("Cs",)))
kinds = st.sampled_from(QUBIT_COUPLING_KINDS)
bounds = st.tuples(finite, finite).filter(lambda b: b[0] != b[1]).map(sorted)
ancillas = st.lists(st.builds(AncillaParams, omega=finite, gamma=positive, kappa=non_negative,
                              sigma_kind=kinds, sigma_scale=scales), min_size=1, max_size=2)
#: every mode takes the config's truncation, as parsing gives it
configs = st.builds(
    ExperimentConfig,
    omega_q=finite,
    gamma_q=non_negative,
    ancillas=ancillas.map(tuple),
    probe_kind=kinds,
    probe_scale=scales,
    field_mode=st.sampled_from(FIELD_MODES),
    init_bloch=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    truncation=st.integers(2, 4),
    dt=positive,
    t_final=positive,
    n_traj=st.integers(2, 10**6),
    base_seed=st.integers(0, 2**64),
    out_dir=text,
    workers=st.integers(0, 64),
    spectrum_grid=st.none() | st.builds(lambda b, n: (*b, n), bounds, st.integers(2, 10**6)),
    fit_input=st.none() | text,
    fit_components=st.integers(1, 5),
).map(lambda c: with_truncation(c, c.truncation))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


def _valid(config):
    try:
        return config.validate()
    except ConfigError:
        return None


@BOUNDED
@given(config=configs.map(_valid).filter(bool))
def test_round_trip_keeps_config_and_hash(workdir, config):
    path = workdir / "run.cfg"
    path.write_text(serialize_config(config))
    parsed = parse_config(path)
    assert parsed == config
    assert config_hash(parsed) == config_hash(config)


def test_preset_round_trip_keeps_hash(tmp_path):
    path = tmp_path / "preset.cfg"
    path.write_text(serialize_config(preset("paper-fig4")))
    assert config_hash(parse_config(path)) == config_hash(preset("paper-fig4"))


@BOUNDED
@given(config=configs, other=configs)
def test_every_field_changes_the_hash(config, other):
    # every field takes the value of an independent draw in turn; the modes
    # always keep the config's truncation, which the text form writes once
    for field in dataclasses.fields(ExperimentConfig):
        changed = with_truncation(
            dataclasses.replace(config, **{field.name: getattr(other, field.name)}),
            (other if field.name == "truncation" else config).truncation,
        )
        if changed != config:
            assert config_hash(changed) != config_hash(config), field.name
    first, mate = config.ancillas[0], other.ancillas[0]
    for field in dataclasses.fields(AncillaParams):
        if field.name == "truncation":
            continue
        ancilla = dataclasses.replace(first, **{field.name: getattr(mate, field.name)})
        changed = dataclasses.replace(config, ancillas=(ancilla,) + config.ancillas[1:])
        if changed != config:
            assert config_hash(changed) != config_hash(config), field.name


_FULL = dataclasses.replace(preset("paper-fig4"), spectrum_grid=(0.0, 4.0, 11),
                            fit_input="spectrum.csv")
#: every config key with the value the text form gives it
_BASE = dict(line.split(" = ", 1) for line in serialize_config(_FULL).splitlines())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)


@settings(BOUNDED, max_examples=40)  # each example parses one config per key
@given(value=json_values)
@example(value=None)
@example(value=True)
@example(value=2.7)
@example(value=5)
@example(value=[0.01])
def test_json_value_at_any_key_parses_or_is_named(workdir, value):
    path = workdir / "run.json"
    for key in _BASE:
        path.write_text(json.dumps({**_BASE, key: value}))
        err = io.StringIO()
        with mock.patch.object(cli, "run_command", return_value=[]), \
                contextlib.redirect_stderr(err):
            code = cli.main(["spectrum", "--config", str(path)])
        kind = _KEYS[key][1] if key in _KEYS else _ANCILLA_KEYS[key.split(".")[-1]][1]
        # null, true and false fit no key, a fraction no integer key, a
        # non-string no string key, and a list no key but init.bloch
        wrong_kind = value is None or isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer() and kind is int) or (
            kind is str and not isinstance(value, (str, dict))) or (
            isinstance(value, list) and key != "init.bloch")
        # the key as a whole name: ancilla.1.sigma is not ancilla.1.sigma_kind
        named = re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err.getvalue())
        assert (code == 1 and named) or (code == 0 and not wrong_kind), (key, err.getvalue())


keys = (st.sampled_from(list(_BASE))
        | st.builds("ancilla.{}.{}".format, st.sampled_from(["1", "2", "3", "0", "01", "x"]),
                    st.sampled_from(list(_ANCILLA_KEYS)))
        | text)
values = (st.sampled_from(list(_BASE.values()))
          | st.builds(str, st.integers() | st.floats() | st.complex_numbers())
          | text)
#: a line of the key-value form, a comment, or anything at all
lines = (st.builds("{} = {}".format, keys, values)
         | st.builds("# {}".format, text)
         | text)


@st.composite
def config_texts(draw):
    """The lines of a full valid config, a few of them dropped (None) or given
    another value, with arbitrary lines spliced in."""
    edits = draw(st.dictionaries(st.sampled_from(list(_BASE)), st.none() | values, max_size=3))
    out = [f"{key} = {edits.get(key, value)}" for key, value in _BASE.items()
           if not (key in edits and edits[key] is None)]
    for line in draw(st.lists(lines, max_size=2)):
        out.insert(draw(st.integers(0, len(out))), line)
    return "\n".join(out) + "\n"


@settings(BOUNDED, max_examples=200)
@given(body=config_texts())
def test_config_text_parses_or_is_rejected_cleanly(workdir, body):
    path = workdir / "fuzz.cfg"
    path.write_bytes(body.encode())
    try:
        parse_config(path)
        parsed = True
    except ConfigError:
        parsed = False
    err = io.StringIO()
    with mock.patch.object(cli, "run_command", return_value=[]), \
            contextlib.redirect_stderr(err):
        code = cli.main(["spectrum", "--config", str(path)])
    assert code == (0 if parsed else 1), err.getvalue()
    assert parsed or err.getvalue().startswith("error: ")
