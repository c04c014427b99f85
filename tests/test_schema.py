"""The CLI's config validator, checked against jsonschema reading the same schema.json."""

import copy
import random
import sys

import jsonschema
import pytest

from conftest import CHAIN_BLOCK
from sasc import cli

_CHECKER = jsonschema.Draft202012Validator.TYPE_CHECKER
#: A validator whose "number" is any int or float, for the bound keywords below.
_ANY_NUMBER = jsonschema.Draft202012Validator({})


def _is_int(value):
    """An int that is not a bool: the config's "integer", which no float is."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bound_on_every_int(keyword):
    """jsonschema's `keyword` validator, applied to an int of any size as well."""
    check = jsonschema.Draft202012Validator.VALIDATORS[keyword]

    def validate(validator, bound, instance, schema):
        return check(_ANY_NUMBER if _is_int(instance) else validator, bound, instance, schema)

    return validate


#: jsonschema's Draft 2020-12 validator, with "number" a finite double, "integer" an int
#: (never an integral float) and bounds on every int, as the CLI reads them.
Reference = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={keyword: _bound_on_every_int(keyword) for keyword in
                ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")},
    type_checker=_CHECKER.redefine_many({
        "number": lambda _, v: _CHECKER.is_type(v, "number") and abs(v) <= sys.float_info.max,
        "integer": lambda _, v: _is_int(v),
    }),
)
SCHEMA = cli._load_schema()
REFERENCE = Reference(SCHEMA)


def reference_path(config, reference=REFERENCE):
    """None for a config that jsonschema accepts, else the JSON path of its first error by path."""
    errors = sorted(reference.iter_errors(config), key=lambda e: e.json_path)
    return errors[0].json_path if errors else None


def cli_path(config):
    """None for a config that cli.validate_config accepts, else the JSON path it names."""
    try:
        cli.validate_config(config)
    except cli.ConfigError as exc:
        message = str(exc)
        assert message.startswith("config invalid at $")
        return message.removeprefix("config invalid at ").partition(": ")[0]
    return None


def interpreter_path(value, schema):
    """None for a value that the CLI's interpreter accepts under `schema`, else its first path."""
    first = min(cli._errors(cli._checked_schema(schema), value, "$", {}), default=None)
    return first and first[0]


def base_configs():
    """The figure tasks, plus chain, oracle, optimize and snr configs that set every task key."""
    figures = [task for name in ("fig2", "fig3", "fig4")
               for task in cli._load_figure_asset(name)["tasks"]]
    du = figures[0]["system"]
    three = next(task["system"] for task in figures if task["system"]["topology"] == "three")
    oracle = {"dt": 0.01, "n_steps": 8192, "ensemble": 8, "port": 2, "segment_length": 1024,
              "overlap": 0.5, "burn_in": 256, "min_fraction": 0.95}
    return [*figures, *[{"system": system, "seed": 1, "output": {"basename": kind}, "task": task}
                        for system, kind, task in [
        (du, "chain", {"kind": "chain",
                       "chain": {**CHAIN_BLOCK, "n_values": [2, 3, 4, 6], "omega": 0.3}}),
        (three, "oracle", {"kind": "oracle", "oracle": oracle}),
        (three, "optimize", {"kind": "optimize", "which": "mb", "target": -0.5, "omega": 1.0,
                             "coupling_index": 1}),
        (three, "snr", {"kind": "snr", "signal_port": 0, "readout_port": 2, "psi": 0.3,
                        "include_output_port": 1}),
    ]]]


#: Replacement values: numbers at and past the schema's bounds and the float limit, values
#: that compare equal as JSON numbers but not as Python objects, and every other JSON type.
VALUES = [
    float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 1e308, -1e308, 0, -0.0,
    1, 1.0, 2, 2.0, 2.5, 3, -1, -1.5, 15, 16, 1000, 1001, 10000, 10001, 10**7, 10**7 + 1,
    True, False, None, "x", "", "chain", "mb", "du", [], {}, [1, 1.0], [0, -0.0], [True, 1],
    [0, 1], [2, 3, 4], [2, 3, 3], [-1, 2], [0.5, 0.5], {"magnitude": 1.0},
    [{"label": "x", "kappa": 1.0}], [1.0, -1.0],
]
#: Keys to add: ones the schema names somewhere (often not where they land) and one it never does.
KEYS = ["surprise", "kind", "seed", "system", "magnitude", "phase", "label", "kappa", "min",
        "points", "n_values", "coupling", "dt", "basename", "task", "ics", "omega_range"]


def containers(node):
    """Every non-empty dict and list in a config, the config itself included."""
    if isinstance(node, (dict, list)) and node:
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


def mutate(config, rng):
    """A copy of `config` with one or two values replaced, deleted, added or repeated."""
    config = copy.deepcopy(config)
    for _ in range(rng.randint(1, 2)):
        node = rng.choice(list(containers(config)))
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        action = rng.random()
        if action < 0.6:
            node[key] = copy.deepcopy(rng.choice(VALUES))
        elif action < 0.75:
            del node[key]
        elif isinstance(node, dict):
            node[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES + [node[key]]))
        else:
            node.append(copy.deepcopy(node[key]))
    return config


def test_mutated_configs_get_the_reference_verdict_and_path():
    rng = random.Random(20261019)
    bases = base_configs()
    for base in bases:
        assert cli_path(base) is None
    configs = [mutate(rng.choice(bases), rng) for _ in range(5000)]
    paths = [cli_path(config) for config in configs]
    assert paths == [reference_path(config) for config in configs]
    assert 500 < paths.count(None) < 2500  # both verdicts are well sampled
    assert len(set(paths)) > 80  # and so are the error paths


def asymmetry(coupling_index):
    config = copy.deepcopy(cli._load_figure_asset("fig3")["tasks"][0])
    config["task"]["coupling_index"] = coupling_index
    return config


def chain(n_values):
    return {"system": base_configs()[0]["system"],
            "task": {"kind": "chain", "chain": {**CHAIN_BLOCK, "n_values": n_values}}}


def snr(**task):
    return {"system": base_configs()[0]["system"], "task": {"kind": "snr", **task}}


@pytest.mark.parametrize("config, path", [
    (chain([2, 3, 3.0]), "$.task.chain.n_values"),
    (asymmetry([1, 1.0]), "$.task.coupling_index"),
    (asymmetry([0, -0.0]), "$.task.coupling_index"),
    (asymmetry([True, 1]), "$.task.coupling_index"),
    (chain([True, 1, 2]), "$.task.chain.n_values[0]"),
    (asymmetry([0, 1.0]), "$.task.coupling_index"),
    (snr(psi=float("nan")), "$.task.psi"),
    (snr(psi=float("inf")), "$.task.psi"),
    (snr(psi=-float("inf")), "$.task.psi"),
    (snr(psi=10**400), "$.task.psi"),
    ({**snr(), "grid": {"points": 10**400}}, "$.grid.points"),
    (snr(signal_port=-(10**400)), "$.task.signal_port"),
    ({**snr(), "seed": 10**400}, None),
    (snr(psi=1e308, omega=-(10**308)), None),
    (snr(signal_port=2.0), "$.task.signal_port"),
    (snr(signal_port=2.5), "$.task.signal_port"),
    (snr(signal_port=True), "$.task.signal_port"),
    (asymmetry(-1), "$.task.coupling_index"),
    (asymmetry([0]), "$.task.coupling_index"),
    (asymmetry([0, 1, 2]), "$.task.coupling_index"),
    (asymmetry("0"), "$.task.coupling_index"),
    (asymmetry(1.0), "$.task.coupling_index"),
], ids=["n_values.3_and_3.0", "unique.1_and_1.0", "unique.0_and_-0.0", "unique.true_and_1",
        "n_values.true_and_1", "unique.0_and_1.0", "number.nan", "number.inf", "number.-inf",
        "number.10**400", "integer.points_10**400", "integer.port_-10**400",
        "integer.seed_10**400", "number.at_the_limit", "integer.2.0", "integer.2.5", "integer.true",
        "oneOf.negative", "oneOf.short", "oneOf.long", "oneOf.string", "oneOf.integral_float"])
def test_explicit_cases(config, path):
    assert cli_path(config) == reference_path(config) == path


@pytest.mark.parametrize("items, unique", [
    ([1, 1.0], False), ([0, -0.0], False), ([True, True], False), ([[1], [1.0]], False),
    ([{"a": 1}, {"a": 1.0}], False), ([None, None], False), ([True, 1], True),
    ([False, 0], True), ([[True], [1]], True), ([{"a": 1}, {"b": 1}], True), (["1", 1], True),
    # Scalars go through one set, lists and dicts pairwise: mixed, and at 999 entries.
    ([True, 1, 1.0], False), ([False, 0, -0.0], False), ([True, 1, False, 0, None], True),
    ([1, [1], {"1": 1}, "1", 1.0], False), ([0, [0], [0.0]], False), ([1, [1], {"1": 1}], True),
    ([2**53 + 1, 2.0**53], True), (list(range(999)), True), ([*range(999), 998.0], False),
])
def test_unique_items_compare_json_values(items, unique):
    schema = {"uniqueItems": True}
    path = None if unique else "$"
    assert interpreter_path(items, schema) == path == reference_path(items, Reference(schema))


def test_a_value_valid_under_both_one_of_branches_is_refused():
    # The config schema's branches cannot overlap, so this schema makes them.
    schema = {"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 0}]}
    for value, path in [(2, "$"), (2.0, None), (-2, None), (0.5, None), ("2", "$")]:
        assert interpreter_path(value, schema) == path == reference_path(value, Reference(schema))


#: The path of every object in a config whose schema node sets additionalProperties false.
CLOSED_OBJECTS = ["$", "$.system", "$.system.modes[1]", "$.system.couplings[0]", "$.task",
                  "$.task.ics", "$.task.ics.modes[0]", "$.task.ics.couplings[1]", "$.task.chain",
                  "$.task.chain.coupling", "$.task.oracle", "$.grid", "$.output"]


@pytest.mark.parametrize("path", CLOSED_OBJECTS)
def test_unknown_keys_are_refused_at_every_closed_object(path):
    fmap = copy.deepcopy(cli._load_figure_asset("fig4")["tasks"][0])
    fmap["task"]["chain"] = copy.deepcopy({**CHAIN_BLOCK, "n_values": [2, 3, 4]})
    fmap["task"]["oracle"] = {}
    fmap["grid"] = {}
    assert cli_path(fmap) is None
    node = fmap
    for part in path.removeprefix("$").replace("[", ".").replace("]", "").split(".")[1:]:
        node = node[int(part) if part.isdigit() else part]
    node["surprise"] = 1
    assert cli_path(fmap) == reference_path(fmap) == path
    with pytest.raises(cli.ConfigError, match="unknown keys are not allowed: 'surprise'$"):
        cli.validate_config(fmap)


@pytest.mark.parametrize("node", [
    {"type": "string", "pattern": "^[a-z]+$"},
    {"type": "string", "format": "date"},
    {"type": ["number", "string"]},
    {"type": "null"},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"$ref": "#/$defs/absent"},
    {"$ref": "other.json#/$defs/system"},
])
def test_a_schema_the_validator_cannot_read_raises_at_load(node):
    schema = copy.deepcopy(SCHEMA)  # _load_schema's cached dict stays as loaded
    schema["$defs"]["system"]["properties"]["modes"]["items"]["properties"]["label"] = node
    with pytest.raises(ValueError, match="the config validator cannot read"):
        cli._checked_schema(schema)
