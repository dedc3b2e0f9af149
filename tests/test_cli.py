import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainring
from chainring.cli import main
from chainring.localring import quotient_presentation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def gb_system(tmp_path):
    return write(
        tmp_path,
        "exgb.json",
        {
            "ring": {"kind": "zpk", "p": 2, "k": 3},
            "vars": ["x", "y"],
            "polys": ["4*x^2*y + y^3 + 2*y + 4", "4*x*y^2"],
        },
    )


@pytest.fixture
def eq7_system(tmp_path):
    return write(
        tmp_path,
        "eq7.json",
        {
            "ring": {"kind": "zpk", "p": 5, "k": 2},
            "vars": ["x"],
            "polys": ["x^5 - x", "5*x + 10"],
        },
    )


def test_gb_golden(capsys, gb_system):
    code, out = run_cli(capsys, "gb", gb_system, "--text")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["basis_text"] == [
        "4*x^2*y + y^3 + 2*y + 4",
        "4*x*y^2",
        "y^4 + 2*y^2 + 4*y",
        "2*y^3 + 4*y",
    ]


def test_solve_golden(capsys, eq7_system):
    code, out = run_cli(capsys, "solve", eq7_system, "--text")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["solutions"] == [[18]]


def test_solve_lifting_method(capsys, eq7_system):
    code, out = run_cli(capsys, "solve", eq7_system, "--text", "--method", "lifting")
    assert code == 0
    assert json.loads(out)["result"]["solutions"] == [[18]]


def test_outputs_are_byte_stable(capsys, gb_system):
    _, first = run_cli(capsys, "gb", gb_system, "--text")
    _, second = run_cli(capsys, "gb", gb_system, "--text")
    assert first == second


def test_roundtrip_verify(capsys, tmp_path, gb_system, eq7_system):
    for args in (("gb", gb_system, "--text"), ("solve", eq7_system, "--text")):
        code, out = run_cli(capsys, *args)
        assert code == 0
        envelope = tmp_path / "envelope.json"
        envelope.write_text(out)
        code, vout = run_cli(capsys, "verify", str(envelope))
        assert code == 0
        assert json.loads(vout)["verified"] is True


def test_empty_system_usage_error(capsys, tmp_path):
    path = write(tmp_path, "empty.json", {})
    code, out = run_cli(capsys, "solve", path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


Z8 = {"kind": "zpk", "p": 2, "k": 3}
LOCAL = quotient_presentation(2, 3, [4, 0, 1], 1).to_json()


@pytest.mark.parametrize(
    "command, obj, key",
    [
        (["minrank", "--instance"], {"ring": Z8, "rank": 1}, "matrices"),
        (["rank"], {"rows": 1, "cols": 1, "data": [[2]]}, "ring"),
        (["solve-local"], {"ring": LOCAL, "vars": ["x"]}, "polys"),
    ],
)
def test_missing_field_is_a_parse_error(capsys, tmp_path, command, obj, key):
    path = write(tmp_path, "input.json", obj)
    code, out = run_cli(capsys, *command, path)
    assert code == 2
    assert out == (
        '{"error":{"message":"missing field \'%s\'","type":"ParseError"}}\n' % key
    )


# x + 1 as JSON terms over Z8 and over the local ring
X_PLUS_1 = {"zpk": [[1, [1]], [1, [0]]], "local": [[[1, 0], [1]], [[1, 0], [0]]]}


@pytest.mark.parametrize(
    "argv, command",
    [
        (["gb", "--text"], "gb"),
        (["solve", "--text"], "solve"),
        (["solve-local"], "solve-local"),
        (["verify"], "gb"),
        (["verify"], "solve"),
        (["verify"], "solve-local"),
    ],
    ids=["gb", "solve", "solve-local", "verify-gb", "verify-solve", "verify-solve-local"],
)
@pytest.mark.parametrize("key, value", [("polys", "x+1"), ("vars", "x")])
def test_string_for_a_list_field_is_a_parse_error(capsys, tmp_path, argv, command, key, value):
    # a JSON string is not a list of its characters: "x+1" would be the
    # system {x, +, 1} with no roots, and "x" would pass for ["x"]
    local = command == "solve-local"
    system = {
        "ring": LOCAL if local else Z8,
        "vars": ["x"],
        "polys": [X_PLUS_1["local" if local else "zpk"]],
    }
    system[key] = value
    obj = {"command": command, "input": system, "result": {}} if argv == ["verify"] else system
    code, out = run_cli(capsys, *argv, write(tmp_path, "input.json", obj))
    assert code == 2
    message = f"field '{key}' must be a list, got {value!r}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "argv, command",
    [
        (["gb", "--text"], "gb"),
        (["solve", "--text"], "solve"),
        (["solve", "--text", "--method", "lifting"], "solve"),
        (["solve-local"], "solve-local"),
        (["verify"], "gb"),
        (["verify"], "solve"),
        (["verify"], "solve-local"),
    ],
    ids=["gb", "solve", "lifting", "solve-local", "verify-gb", "verify-solve", "verify-solve-local"],
)
@pytest.mark.parametrize("name", [{"a": 1}, ["x"], 1, None], ids=["object", "list", "int", "null"])
def test_variable_name_that_is_not_a_string_is_a_parse_error(capsys, tmp_path, argv, command, name):
    # an object or list ended in "unhashable type" in PolyRing, and a number
    # or null passed as a name and failed later as an unknown variable
    local = command == "solve-local"
    system = {"ring": LOCAL if local else Z8, "vars": [name], "polys": [X_PLUS_1["local" if local else "zpk"]]}
    obj = {"command": command, "input": system, "result": {}} if argv == ["verify"] else system
    code, out = run_cli(capsys, *argv, write(tmp_path, "input.json", obj))
    assert code == 2
    message = f"field 'vars' must hold variable names, got {name!r}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "command, obj, key, value",
    [
        (["minrank", "--instance"], {"ring": Z8, "r": 1, "matrices": 5}, "matrices", 5),
        (["minrank", "--instance"], {"ring": Z8, "r": 1, "matrices": None}, "matrices", None),
    ],
    ids=["minrank-int", "minrank-null"],
)
def test_non_list_field_is_a_parse_error(capsys, tmp_path, command, obj, key, value):
    # "matrices": 5 ended in "'int' object is not iterable"
    code, out = run_cli(capsys, *command, write(tmp_path, "input.json", obj))
    assert code == 2
    message = f"field '{key}' must be a list, got {value!r}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize("golden_name", ["solve_eq7", "solve_local_cubic", "minrank_ks"])
@pytest.mark.parametrize(
    "solutions, message",
    [
        (None, "field 'solutions' must be a list, got None"),
        (5, "field 'solutions' must be a list, got 5"),
        ([5], "field 'solutions' must hold lists, got 5"),
        ([None], "field 'solutions' must hold lists, got None"),
    ],
    ids=["null", "number", "number-entry", "null-entry"],
)
def test_verify_malformed_solutions_is_a_parse_error(capsys, tmp_path, golden_name, solutions, message):
    # each ended in a TypeError traceback in _verify_dispatch
    envelope = json.loads((Path(__file__).resolve().parent / "goldens" / f"{golden_name}.json").read_text())
    envelope["result"]["solutions"] = solutions
    code, out = run_cli(capsys, "verify", write(tmp_path, "envelope.json", envelope))
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "golden_name, path, value, message",
    [
        ("gb_exgb", ("result", "basis"), None, "field 'basis' must be a list, got None"),
        ("rank_decode", ("result", "solutions", 0, "x"), None, "field 'x' must be a list, got None"),
        ("rank_decode", ("result", "solutions"), [5], "field 'solutions' must hold objects, got 5"),
        ("rank_decode", ("input", "extension"), 5, "extension descriptor must be an object, got 5"),
    ],
    ids=["gb-basis-null", "decode-x-null", "decode-solution-number", "decode-extension-number"],
)
def test_verify_malformed_envelope_is_a_parse_error(capsys, tmp_path, golden_name, path, value, message):
    # each ended in a TypeError traceback in _verify_dispatch or in
    # extension_from_json
    envelope = json.loads((Path(__file__).resolve().parent / "goldens" / f"{golden_name}.json").read_text())
    target = envelope
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, out = run_cli(capsys, "verify", write(tmp_path, "envelope.json", envelope))
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "command, in_file",
    [(["solve", "--text"], True), (["solve", "--text", "--ring"], False), (["rank", "--ring"], False)],
    ids=["solve-file", "solve-flag", "rank-flag"],
)
@pytest.mark.parametrize("components", [5, None, "z6"], ids=["int", "null", "string"])
def test_product_components_that_are_not_a_list_are_a_parse_error(capsys, tmp_path, command, in_file, components):
    # "components": 5 ended in a TypeError traceback ("'int' object is not
    # iterable") and a string was read one character at a time
    ring = {"kind": "product", "components": components}
    if command[0] == "rank":
        argv = [*command, json.dumps(ring), write(tmp_path, "matrix.json", {"data": [[1]]})]
    elif in_file:
        argv = [*command, write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": ["x"]})]
    else:
        argv = [*command, json.dumps(ring), write(tmp_path, "sys.json", {"vars": ["x"], "polys": ["x"]})]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    message = f"field 'components' must be a list, got {components!r}"
    assert out == json.dumps({"error": {"message": message, "type": "ParseError"}}, separators=(",", ":")) + "\n"


def test_inline_ring_spec_missing_field_is_a_parse_error(capsys, tmp_path):
    path = write(tmp_path, "sys.json", {"vars": ["x"], "polys": ["x"]})
    code, out = run_cli(capsys, "solve", "--text", "--ring", '{"kind":"zpk","p":2}', path)
    assert code == 2
    assert out == '{"error":{"message":"missing field \'k\'","type":"ParseError"}}\n'


def test_malformed_inline_ring_spec_is_a_parse_error(capsys, tmp_path):
    path = write(tmp_path, "sys.json", {"vars": ["x"], "polys": ["x"]})
    code, out = run_cli(capsys, "solve", "--text", "--ring", '{"kind":"zpk","p":2', path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("bad ring spec ")


@pytest.mark.parametrize(
    "field, value, shown",
    [("p", "x", "'x'"), ("p", [2], "[2]"), ("p", 2.9, "2.9"), ("k", True, "True")],
)
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_non_integer_ring_field_is_a_parse_error(capsys, tmp_path, field, value, shown, inline):
    # strings and lists used to crash in int(), floats and bools were rounded
    ring = {"kind": "zpk", "p": 2, "k": 2, field: value}
    system = {"vars": ["x"], "polys": ["x"]}
    if inline:
        path = write(tmp_path, "sys.json", system)
        code, out = run_cli(capsys, "solve", "--text", "--ring", json.dumps(ring), path)
    else:
        path = write(tmp_path, "sys.json", dict(system, ring=ring))
        code, out = run_cli(capsys, "solve", "--text", path)
    assert code == 2
    message = f"field '{field}' must be an integer, got {shown}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize("value, shown", [("1", "'1'"), (2.9, "2.9"), (True, "True")])
@pytest.mark.parametrize("field", ["m", "r", "radius"])
def test_non_integer_instance_field_is_a_parse_error(capsys, tmp_path, field, value, shown):
    # int() crashed on strings and rounded floats and bools to an answerable size
    ext = {"base": {"kind": "zpk", "p": 2, "k": 2}, "m": 2, "modulus": [1, 1, 1]}
    decode_args = [
        "--generator", write(tmp_path, "gen.json", [[[1, 0], [0, 1], [1, 2]]]),
        "--received", write(tmp_path, "rec.json", [[1, 1], [0, 1], [3, 1]]),
        "--radius", "1",
    ]
    if field == "m":
        bad = write(tmp_path, "ext.json", dict(ext, m=value))
        code, out = run_cli(capsys, "rank-decode", "--extension", bad, *decode_args)
    elif field == "r":
        instance = {"ring": Z8, "r": value, "matrices": [[[1, 0], [0, 1]]]}
        code, out = run_cli(capsys, "minrank", "--instance", write(tmp_path, "mr.json", instance))
    else:
        ext_path = write(tmp_path, "ext.json", ext)
        code, out = run_cli(capsys, "rank-decode", "--extension", ext_path, *decode_args)
        assert code == 0
        envelope = json.loads(out)
        envelope["input"]["radius"] = value
        code, out = run_cli(capsys, "verify", write(tmp_path, "envelope.json", envelope))
    assert code == 2
    message = f"field '{field}' must be an integer, got {shown}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


Z4 = {"kind": "zpk", "p": 2, "k": 2}
DECODE_ARGS = (
    "--generator", [[[1, 0], [0, 1], [1, 2]]],
    "--received", [[1, 1], [0, 1], [3, 1]],
    "--radius", "1",
)


def run_rank_decode(capsys, tmp_path, ext):
    argv = ["rank-decode", "--extension", write(tmp_path, "ext.json", ext)]
    for i in range(0, len(DECODE_ARGS), 2):
        flag, value = DECODE_ARGS[i : i + 2]
        argv += [flag, value if isinstance(value, str) else write(tmp_path, f"{flag[2:]}.json", value)]
    return run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--generator", [None], "field 'generator' must be a list, got None"),
        ("--generator", 5, "field 'generator' must be a list, got 5"),
        ("--received", None, "field 'received' must be a list, got None"),
    ],
    ids=["generator-null-row", "generator-number", "received-null"],
)
def test_rank_decode_malformed_word_is_a_parse_error(capsys, tmp_path, flag, value, message):
    # a generator of [null] ended in a TypeError traceback
    argv = ["rank-decode", "--extension", write(tmp_path, "ext.json", {"base": Z4, "m": 2})]
    for i in range(0, len(DECODE_ARGS), 2):
        name, arg = DECODE_ARGS[i : i + 2]
        arg = value if name == flag else arg
        argv += [name, arg if isinstance(arg, str) else write(tmp_path, f"{name[2:]}.json", arg)]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize("modulus", ["x", 7, [1, "a", 1], [1, [1], 1]])
@pytest.mark.parametrize("form", ["gr", "gr-base", "extension"])
def test_malformed_modulus_is_a_parse_error(capsys, tmp_path, form, modulus):
    # a string modulus crashed in string formatting, an int in iteration
    if form == "extension":
        code, out = run_rank_decode(capsys, tmp_path, {"base": Z4, "m": 2, "modulus": modulus})
    else:
        ring = {"kind": "gr", "p": 2, "k": 2, "r": 2, "modulus": modulus}
        if form == "gr-base":
            ring = {"kind": "gr", "base": Z4, "r": 2, "modulus": modulus}
        path = write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": ["x+1"]})
        code, out = run_cli(capsys, "solve", "--text", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("field 'modulus'")


@pytest.mark.parametrize("modulus", [[1, 1], [1, 1, 0]], ids=["short", "zero-top"])
@pytest.mark.parametrize("form", ["gr", "gr-base", "extension"])
def test_modulus_of_the_wrong_degree_is_a_parse_error(capsys, tmp_path, form, modulus):
    # r = 2 with a degree-1 modulus solved over a degree-1 ring and echoed r = 1
    if form == "extension":
        ext = {"base": Z4, "m": 2, "modulus": [3] + modulus[1:]}
        code, out = run_rank_decode(capsys, tmp_path, ext)
        key = "m"
    else:
        ring = {"kind": "gr", "p": 2, "k": 2, "r": 2, "modulus": modulus}
        if form == "gr-base":
            ring = {"kind": "gr", "base": Z4, "r": 2, "modulus": modulus}
        path = write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": ["x+1"]})
        code, out = run_cli(capsys, "solve", "--text", path)
        key = "r"
    assert code == 2
    message = f"field 'modulus' has degree 1, not {key} = 2"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


def test_zero_top_coefficients_of_a_modulus_do_not_count(capsys, tmp_path):
    ring = {"kind": "gr", "p": 2, "k": 2, "r": 2, "modulus": [1, 1, 1, 0]}
    path = write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": ["x+1"]})
    code, out = run_cli(capsys, "solve", "--text", path)
    assert code == 0
    assert json.loads(out)["input"]["ring"] == {"kind": "gr", "p": 2, "k": 2, "r": 2, "modulus": [1, 1, 1]}


@pytest.mark.parametrize(
    "envelope, message",
    [
        ({"command": "solve-local"}, "missing field 'input'"),
        ({"command": "solve", "input": {"ring": Z8, "vars": ["x"], "polys": [X_PLUS_1["zpk"]]}}, "missing field 'result'"),
        ({"command": "solve", "input": {"ring": Z8, "vars": ["x"], "polys": [X_PLUS_1["zpk"]]}, "result": {}}, "missing field 'solutions'"),
        ({"command": "solve", "input": [], "result": {}}, "field 'input' must be an object, got []"),
        ({"command": "gb", "input": {"ring": Z8, "vars": ["x"], "polys": []}, "result": "ok"}, "field 'result' must be an object, got 'ok'"),
        ({"command": "solve-local", "input": {"ring": LOCAL, "vars": [], "polys": [[[[1, 0], [0]]]]}, "result": {"solutions": []}}, "system file needs a 'vars' list"),
    ],
    ids=["no-input", "no-result", "no-solutions", "input-list", "result-string", "local-no-vars"],
)
def test_verify_needs_input_and_result_objects(capsys, tmp_path, envelope, message):
    # a missing input or result ended in a KeyError traceback with exit 1
    code, out = run_cli(capsys, "verify", write(tmp_path, "envelope.json", envelope))
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


GR42 = {"kind": "gr", "p": 2, "k": 2, "r": 2, "modulus": [1, 1, 1]}


@pytest.mark.parametrize(
    "command, ring, poly, message",
    [
        ("solve", Z8, [[True, [1]], [1, [0]]], "a Z8 element must be an integer, got True"),
        ("solve", GR42, [[[1, True], [1]], [[1, 0], [0]]], "a Z4 element must be an integer, got True"),
        ("solve-local", LOCAL, [[[1, 0], [1]], [[False, 0], [0]]], "a Z8 element must be an integer, got False"),
        ("solve", GR42, [[[1, 0, 1], [1]], [[1, 0], [0]]], "expected <= 2 coordinates, got [1, 0, 1]"),
        ("solve-local", LOCAL, [[[1, 0, 0], [1]], [[1, 0], [0]]], "expected 2 coordinates, got [1, 0, 0]"),
    ],
    ids=["zpk", "gr-coordinate", "local-coordinate", "gr-coordinate-count", "local-coordinate-count"],
)
def test_bool_is_not_a_ring_element(capsys, tmp_path, command, ring, poly, message):
    # true was read as 1: over Z8 the system was echoed as x + 1 and solved;
    # a coordinate list of the wrong length ended as a DomainError, exit 1
    path = write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": [poly]})
    code, out = run_cli(capsys, command, path)
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


NOT_INTEGERS = "exponents must be a list of integers"


@pytest.mark.parametrize(
    "term, problem",
    [
        ([1, 5], NOT_INTEGERS),
        ([1, ["a"]], NOT_INTEGERS),
        ([1, [1.5]], NOT_INTEGERS),
        ([1, [True]], NOT_INTEGERS),
        ([1, [1, 2]], "bad exponent vector"),
        ([1, [-1]], "bad exponent vector"),
    ],
    ids=["int", "string", "float", "bool", "length", "negative"],
)
def test_exponents_must_be_a_list_of_integers(capsys, tmp_path, term, problem):
    # an int or a string ended in a traceback; a float or a bool was read as
    # x^1; a wrong length or a negative entry ended as a DomainError, exit 1
    path = write(tmp_path, "sys.json", {"ring": Z8, "vars": ["x"], "polys": [[term, [1, [0]]]]})
    code, out = run_cli(capsys, "solve", path)
    assert code == 2
    message = f"bad term {term!r}: {problem}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "command, obj, key, rows",
    [
        (["rank"], {"ring": Z8, "data": [[1, 2], [3]]}, "data", [[1, 2], [3]]),
        (["minrank", "--instance"], {"ring": Z8, "r": 1, "matrices": [[[1, 0], [1]]]}, "matrices", [[1, 0], [1]]),
        (["minrank", "--instance"], {"ring": Z8, "r": 1, "matrices": [[[1, 0], [0, 1]]], "m0": [[1], [0, 1]]}, "m0", [[1], [0, 1]]),
        (["rank"], {"ring": Z8, "data": [1, 2]}, "data", [1, 2]),
    ],
    ids=["rank", "minrank", "minrank-m0", "rank-flat"],
)
def test_ragged_matrix_is_a_parse_error(capsys, tmp_path, command, obj, key, rows):
    # ragged rows ended as a DomainError with exit 1, flat rows in a traceback
    code, out = run_cli(capsys, *command, write(tmp_path, "input.json", obj))
    assert code == 2
    message = f"field '{key}' is a ragged matrix, got {rows!r}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"mul": LOCAL["mul"][:1]}, "mul"),
        ({"mul": [LOCAL["mul"][0], LOCAL["mul"][1][:1]]}, "mul"),
        ({"gamma": 3}, "ann"),
        ({"one": [1]}, "one"),
        ({"gamma": 2.0}, "gamma"),
    ],
    ids=["missing-plane", "missing-row", "gamma-above-ann", "short-one", "float-gamma"],
)
def test_local_ring_descriptor_shape_is_checked(capsys, tmp_path, change, field):
    # a short mul ended in an IndexError traceback; gamma 3 was echoed as 2
    ring = dict(LOCAL, **change)
    path = write(tmp_path, "sys.json", {"ring": ring, "vars": ["x"], "polys": [X_PLUS_1["local"]]})
    code, out = run_cli(capsys, "solve-local", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"field '{field}'")


@pytest.mark.parametrize("ring", [5, [], "local", None], ids=["number", "list", "string", "null"])
@pytest.mark.parametrize("command", ["solve-local", "verify"])
def test_local_ring_descriptor_must_be_an_object(capsys, tmp_path, ring, command):
    # a ring that is not an object ended in an AttributeError traceback, exit 1
    system = {"ring": ring, "vars": ["x"], "polys": [X_PLUS_1["local"]]}
    if command == "verify":
        system = {"command": "solve-local", "input": system, "result": {"solutions": []}}
    code, out = run_cli(capsys, command, write(tmp_path, "input.json", system))
    assert code == 2
    message = f"a local-ring descriptor must be an object, got {ring!r}"
    assert json.loads(out) == {"error": {"message": message, "type": "ParseError"}}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["solve", "--system", "instances/eq7.json"],
        ["solve", "instances/eq7.json", "--text", "--field-equations"],
        ["solve-local", "instances/local_cubic.json", "--field-equations"],
    ],
)
def test_solve_takes_its_file_and_no_field_equations(capsys, argv):
    # F_m never changes a solution set, so only gb offers --field-equations
    code, _ = run_cli(capsys, *argv)
    assert code == 2


def test_text_needs_flag(capsys, tmp_path):
    path = write(
        tmp_path,
        "sys.json",
        {"ring": {"kind": "zpk", "p": 2, "k": 3}, "vars": ["x"], "polys": ["x"]},
    )
    code, out = run_cli(capsys, "solve", path)
    assert code == 2


def test_rank_subcommand(capsys, tmp_path):
    path = write(
        tmp_path,
        "mat.json",
        {
            "ring": {"kind": "zpk", "p": 2, "k": 3},
            "rows": 2,
            "cols": 2,
            "data": [[2, 0], [0, 4]],
        },
    )
    code, out = run_cli(capsys, "rank", path)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["rank"] == 2
    assert data["result"]["smith_diagonal"] == [2, 4]
    envelope = tmp_path / "rank_env.json"
    envelope.write_text(out)
    code, _ = run_cli(capsys, "verify", str(envelope))
    assert code == 0


def test_minrank_subcommand(capsys, tmp_path, homogeneous_minrank_z8):
    path = write(tmp_path, "inst.json", homogeneous_minrank_z8.to_json())
    code, out = run_cli(capsys, "minrank", "--instance", path, "--strategy", "sm-linearization")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["solutions"] == [
        [0, 0, 0],
        [0, 0, 4],
        [4, 4, 2],
        [4, 4, 6],
    ]
    envelope = tmp_path / "mr_env.json"
    envelope.write_text(out)
    code, vout = run_cli(capsys, "verify", str(envelope))
    assert code == 0
    assert "brute-force-equality" in json.loads(vout)["checks"]


def test_rank_decode_subcommand(capsys, tmp_path, decoding_instance, ext83):
    ext_path = write(tmp_path, "ext.json", ext83.to_json())
    gen_path = write(
        tmp_path,
        "gen.json",
        [[ext83.element_to_json(v) for v in row] for row in decoding_instance.generator],
    )
    rec_path = write(
        tmp_path,
        "rec.json",
        [ext83.element_to_json(v) for v in decoding_instance.received],
    )
    code, out = run_cli(
        capsys,
        "rank-decode",
        "--extension", ext_path,
        "--generator", gen_path,
        "--received", rec_path,
        "--radius", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["x"] == [[1, 3, 6]]
    assert data["result"]["verified"] is True
    envelope = tmp_path / "rd_env.json"
    envelope.write_text(out)
    code, vout = run_cli(capsys, "verify", str(envelope))
    assert code == 0
    assert json.loads(vout)["checks"] == ["codewords-verified", "brute-force-equality"]


def test_verify_rank_decode_compares_with_brute_force(capsys, tmp_path):
    """An ambiguous word over GR(4,2): the envelope lists both x within the
    radius and verifies against brute force; an envelope that drops one of
    them, or that claims the answer unique, is rejected."""
    ext = {"base": {"kind": "zpk", "p": 2, "k": 2}, "m": 2, "modulus": [1, 1, 1]}
    code, out = run_cli(
        capsys,
        "rank-decode",
        "--extension", write(tmp_path, "ext.json", ext),
        "--generator", write(tmp_path, "gen.json", [[[1, 0], [0, 1], [1, 2]]]),
        "--received", write(tmp_path, "rec.json", [[1, 1], [0, 1], [3, 1]]),
        "--radius", "1",
    )
    assert code == 0
    envelope = json.loads(out)
    assert [sol["x"] for sol in envelope["result"]["solutions"]] == [[[1, 1]], [[3, 3]]]
    assert envelope["result"]["unique"] is False

    def verify(env):
        return run_cli(capsys, "verify", write(tmp_path, "envelope.json", env))

    code, vout = verify(envelope)
    assert code == 0
    assert json.loads(vout)["checks"] == ["codewords-verified", "brute-force-equality"]
    dropped = json.loads(out)
    del dropped["result"]["solutions"][1]
    claimed = json.loads(out)
    claimed["result"]["unique"] = True
    for tampered, message in (
        (dropped, "solution set differs from brute force"),
        (claimed, "the unique flag disagrees with brute force"),
    ):
        code, vout = verify(tampered)
        assert code == 1
        assert json.loads(vout)["error"]["message"] == message


def test_rank_decode_solver_error(capsys, tmp_path, ext42):
    """A certified-empty word: rank-decode exits 1 with the solver's error
    envelope."""
    S = ext42
    g = [S.element_to_json(v) for v in (S.one, S.zero, S.zero)]
    y = [S.element_to_json(v) for v in (S.zero, S.one, S.alpha)]
    code, out = run_cli(
        capsys,
        "rank-decode",
        "--extension", write(tmp_path, "ext.json", S.to_json()),
        "--generator", write(tmp_path, "gen.json", [g]),
        "--received", write(tmp_path, "rec.json", y),
        "--radius", "0",
    )
    assert code == 1
    assert out == (
        '{"error":{"message":"no codeword within the radius (brute-confirmed)",'
        '"type":"NoSolution"}}\n'
    )


def test_solve_local_subcommand(capsys, tmp_path):
    from chainring.localring import quotient_presentation
    from chainring.polys import PolyRing

    pres = quotient_presentation(2, 3, [4, 0, 1], 1)
    P = PolyRing(pres, ("x",), "lex")
    cubic = P.poly(
        [((3,), pres.from_int(1)), ((1,), pres.from_int(2)), ((0,), pres.from_int(4))]
    )
    path = write(
        tmp_path,
        "local.json",
        {"ring": pres.to_json(), "vars": ["x"], "polys": [P.poly_to_json(cubic)]},
    )
    code, out = run_cli(capsys, "solve-local", path)
    assert code == 0
    data = json.loads(out)
    assert sorted(data["result"]["solutions"]) == sorted(
        [[[2, 0]], [[6, 0]], [[2, 1]], [[6, 1]]]
    )
    envelope = tmp_path / "local_env.json"
    envelope.write_text(out)
    code, vout = run_cli(capsys, "verify", str(envelope))
    assert code == 0
    assert json.loads(vout)["checks"] == ["solutions-satisfy-system", "brute-force-equality"]
    dropped = json.loads(out)
    del dropped["result"]["solutions"][0]
    code, vout = run_cli(capsys, "verify", write(tmp_path, "dropped.json", dropped))
    assert code == 1
    assert (
        json.loads(vout)["error"]["message"]
        == "solution set differs from brute-force enumeration"
    )


def test_ring_shorthand_spec(capsys, tmp_path):
    path = write(tmp_path, "sys.json", {"vars": ["x"], "polys": ["2*x"]})
    code, out = run_cli(capsys, "solve", path, "--ring", "zpk:2:2", "--text")
    assert code == 0
    assert json.loads(out)["result"]["solutions"] == [[0], [2]]


def test_order_flag(capsys, tmp_path):
    path = write(
        tmp_path,
        "sys.json",
        {
            "ring": {"kind": "zpk", "p": 2, "k": 3},
            "vars": ["x", "y"],
            "polys": ["4*x^2*y + y^3 + 2*y + 4", "4*x*y^2"],
        },
    )
    code, out = run_cli(
        capsys, "gb", path, "--text", "--order", "lex:y,x", "--field-equations"
    )
    assert code == 0
    texts = json.loads(out)["result"]["basis_text"]
    assert "y^2 + 4" in texts and "2*y + 4" in texts


REPO = Path(__file__).resolve().parents[1]


def verify_envelope(capsys, tmp_path, envelope: dict):
    return run_cli(capsys, "verify", write(tmp_path, "envelope.json", envelope))


@pytest.mark.parametrize("order", ["lex:y,x", "degrevlex"])
def test_verify_reads_the_order_of_a_gb_envelope(capsys, tmp_path, monkeypatch, order):
    # verify rebuilt every system in lex x > y, so the correct lex y > x
    # basis failed the S/A-polynomial conditions (exit 1)
    monkeypatch.chdir(REPO)
    code, out = run_cli(capsys, "gb", "instances/exgb.json", "--text", "--order", order)
    assert code == 0
    envelope = json.loads(out)
    code, out = verify_envelope(capsys, tmp_path, envelope)
    assert (code, json.loads(out)["checks"]) == (0, ["groebner-conditions", "ideal-equality"])
    bad = [json.loads(json.dumps(envelope))]
    bad[0]["result"]["basis"].pop()  # a basis missing a member
    if order == "lex:y,x":  # the basis read in lex x > y, as verify did
        bad.append(json.loads(json.dumps(envelope)))
        bad[1]["input"]["order"] = {"kind": "lex", "priority": [0, 1]}
    for envelope in bad:
        code, out = verify_envelope(capsys, tmp_path, envelope)
        assert code == 1 and json.loads(out)["error"]["type"] == "ChainRingError"


@pytest.mark.parametrize(
    "order, message",
    [
        ("lex", "field 'order' must be an object, got 'lex'"),
        ({"priority": [0, 1]}, "field 'order.kind' must be 'lex' or 'degrevlex', got None"),
        ({"kind": "grevlex", "priority": [0, 1]}, "field 'order.kind' must be 'lex' or 'degrevlex', got 'grevlex'"),
        ({"kind": "lex"}, "field 'order.priority' must list each variable index once, got None"),
        ({"kind": "lex", "priority": [0, 0]}, "field 'order.priority' must list each variable index once, got [0, 0]"),
        ({"kind": "lex", "priority": [0]}, "field 'order.priority' must list each variable index once, got [0]"),
        ({"kind": "lex", "priority": [0, True]}, "field 'order.priority' must list each variable index once, got [0, True]"),
        ({"kind": "lex", "priority": "0,1"}, "field 'order.priority' must list each variable index once, got '0,1'"),
    ],
    ids=["string", "no-kind", "unknown-kind", "no-priority", "repeated", "short", "bool", "string-priority"],
)
def test_malformed_order_is_a_parse_error(capsys, tmp_path, order, message):
    envelope = json.loads(golden("gb_exgb"))
    envelope["input"]["order"] = order
    code, out = verify_envelope(capsys, tmp_path, envelope)
    assert (code, json.loads(out)) == (2, {"error": {"message": message, "type": "ParseError"}})


def run_python(*argv):
    src = str(Path(chainring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True, text=True, check=True
    ).stdout


def test_solve_local_runaway_basis_prints_one_envelope(tmp_path, runaway_local_polynomial):
    # buchberger's term cap through the CLI: one error envelope on stdout,
    # exit 1, nothing on stderr; a budget below the expanded system's 2^6
    # residue points refuses the lift fallback
    P = runaway_local_polynomial.ring
    system = {"ring": P.ring.to_json(), "vars": list(P.variables), "polys": [P.poly_to_json(runaway_local_polynomial)]}
    path = write(tmp_path, "runaway.json", system)
    src = str(Path(chainring.__file__).resolve().parents[1])
    env = dict(os.environ, CHAINRING_BUDGET="63")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "chainring.cli", "solve-local", path],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ResourceExceeded" and "exceeds the cap" in error["message"]


def test_solve_output_same_under_optimize_flag():
    args = ("-m", "chainring.cli", "solve", "instances/eq7.json", "--text")
    plain = run_python(*args)
    assert json.loads(plain)["result"]["solutions"] == [[18]]
    assert run_python("-O", *args) == plain


def test_cli_import_does_not_load_numpy():
    out = run_python("-c", "import sys, chainring.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_sm_linearization_loads_neither_oracles_nor_numpy():
    script = (
        "import json, sys, chainring\n"
        "from chainring.minrank import MinRankInstance, solve_minrank\n"
        "with open('instances/minrank_rank1.json') as f:\n"
        "    inst = MinRankInstance.from_json(json.load(f))\n"
        "assert len(solve_minrank(inst, 'sm-linearization')) == 4\n"
        "print('chainring.oracles' in sys.modules, 'numpy' in sys.modules)\n"
    )
    assert run_python("-c", script).strip() == "False False"


# Each golden under tests/goldens/ is the stdout of one CLI invocation run from
# the repository root.  Regenerate a golden only for an intended change of
# output, and say why in the change log.
GOLDENS = REPO / "tests" / "goldens"

_DECODE = (
    "rank-decode",
    "--extension", "instances/extension_z8_m3.json",
    "--generator", "instances/decode_generator.json",
    "--received", "instances/decode_received.json",
    "--radius", "1",
)
_MINRANK = ("minrank", "--instance", "instances/minrank_rank1.json", "--strategy")

# golden name -> argv
CASES = {
    "gb_exgb": ("gb", "instances/exgb.json", "--text"),
    "gb_exgb_lex_yx_field": (
        "gb", "instances/exgb.json", "--text", "--order", "lex:y,x", "--field-equations",
    ),
    "solve_eq7": ("solve", "instances/eq7.json", "--text"),
    "solve_eq7_lifting": ("solve", "instances/eq7.json", "--text", "--method", "lifting"),
    "rank_example": ("rank", "instances/rank_example.json"),
    "minrank_ks": _MINRANK + ("ks",),
    "minrank_sm_groebner": _MINRANK + ("sm-groebner",),
    "minrank_sm_linearization": _MINRANK + ("sm-linearization",),
    "minrank_brute": _MINRANK + ("brute",),
    "rank_decode": _DECODE,
    "rank_decode_linearization": _DECODE + ("--strategy", "linearization"),
    "rank_decode_groebner": _DECODE + ("--strategy", "groebner"),
    "rank_decode_sm": _DECODE + ("--strategy", "sm"),
    "rank_decode_minrank_ks": _DECODE + ("--strategy", "minrank-ks"),
    "solve_local_cubic": ("solve-local", "instances/local_cubic.json"),
    "verify_gb_exgb": ("verify", "tests/goldens/gb_exgb.json"),
}

# one case per subcommand not covered under -O above (solve is), plus the
# sm-linearization path in minrank and in decoding
OPTIMIZED = (
    "gb_exgb",
    "rank_example",
    "minrank_ks",
    "minrank_sm_linearization",
    "rank_decode_linearization",
    "rank_decode_sm",
    "solve_local_cubic",
    "verify_gb_exgb",
)


def golden(name: str) -> str:
    return (GOLDENS / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert run_cli(capsys, *CASES[name]) == (0, golden(name))


@pytest.mark.parametrize("name", OPTIMIZED)
def test_cli_matches_golden_under_optimize_flag(name):
    assert run_python("-O", "-m", "chainring.cli", *CASES[name]) == golden(name)


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if argv[0] != "verify"))
def test_cli_golden_envelopes_verify(name, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out = run_cli(capsys, "verify", str(GOLDENS / f"{name}.json"))
    assert code == 0 and json.loads(out)["verified"] is True


def test_minrank_ks_with_target_rank_above_n(capsys, tmp_path, z4):
    inst = chainring.MinRankInstance(
        z4,
        (
            chainring.RingMatrix(z4, [[1, 0], [0, 1]]),
            chainring.RingMatrix(z4, [[0, 1], [1, 0]]),
        ),
        3,
    )
    path = write(tmp_path, "inst.json", inst.to_json())
    code, out = run_cli(capsys, "minrank", "--instance", path, "--strategy", "ks")
    assert code == 0
    assert len(json.loads(out)["result"]["solutions"]) == 16


def cli_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(chainring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


BIG = 10**30


@pytest.mark.parametrize(
    "spec, message",
    [
        (json.dumps({"kind": "zpk", "p": 2, "k": BIG}), f"p^k = 2^{BIG} has more than 4096 bits"),
        (json.dumps({"kind": "zpk", "p": BIG + 57, "k": 1}), f"p = {BIG + 57} is not below 2^40"),
        (f"zn:{BIG + 57}", f"n = {BIG + 57} is not below 2^40"),
        ("gr:2:1:60", "GR over Z2 of degree 60 has a residue field above 2^14 elements"),
    ],
    ids=["zpk-huge-k", "zpk-huge-p", "zn-huge-n", "gr-huge-r"],
)
def test_an_oversized_ring_spec_is_refused_at_once(spec, message):
    # p^k was computed outright (MemoryError), p and n were trial-divided
    # and the gr modulus search ran over 2^60 residues: each hung or died
    done = subprocess.run(
        [sys.executable, "-m", "chainring.cli", "rank", "instances/rank_example.json", "--ring", spec],
        cwd=REPO, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout) == {"error": {"message": message, "type": "TooLarge"}}


def test_an_oversized_extension_is_refused_at_once(tmp_path):
    # the degree-64 extension of Z4 built X^(4^64 - 1) - 1 densely and
    # ended in an OverflowError traceback
    ext = write(tmp_path, "ext.json", {"base": {"kind": "zpk", "p": 2, "k": 2}, "m": 64})
    gen = write(tmp_path, "gen.json", [[[1, 0], [0, 1]]])
    rec = write(tmp_path, "rec.json", [[1, 0], [0, 1]])
    done = subprocess.run(
        [sys.executable, "-m", "chainring.cli", "rank-decode", "--extension", ext,
         "--generator", gen, "--received", rec, "--radius", "1"],
        cwd=REPO, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (1, "")
    message = "the degree-64 extension of Z4 has a residue field above 2^10 elements"
    assert json.loads(done.stdout) == {"error": {"message": message, "type": "TooLarge"}}


@pytest.mark.parametrize("argv", [["solve"], ["gb"], ["solve", "--method", "lifting"]], ids=["solve", "gb", "lifting"])
def test_a_local_ring_system_is_pointed_to_solve_local(argv):
    # the local kind was refused as an unknown ring kind; it is read now,
    # and the chain-ring commands name the command that solves over it
    done = subprocess.run(
        [sys.executable, "-m", "chainring.cli", *argv, "instances/local_cubic.json"],
        cwd=REPO, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (1, "")
    error = json.loads(done.stdout)["error"]
    assert error["type"] == "NotChainRing" and "solve-local" in error["message"]


def test_a_local_ring_is_no_extension_base(capsys, tmp_path):
    # a local base reached the extension's constructor, an AttributeError
    ext = write(tmp_path, "ext.json", {"base": LOCAL, "m": 2})
    gen = write(tmp_path, "gen.json", [[[1, 0], [0, 1]]])
    rec = write(tmp_path, "rec.json", [[1, 0], [0, 1]])
    code, out = run_cli(capsys, "rank-decode", "--extension", ext, "--generator", gen, "--received", rec, "--radius", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
