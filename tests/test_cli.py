import argparse
import json

import pytest

from dfmlcorr import cli
from dfmlcorr.cli import _frames_from_args, main
from dfmlcorr.semantics import frame_to_json, load_frame
from dfmlcorr.syntax import MAX_DEPTH, parse_dfml


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_correspond_box_t(capsys):
    code, out, _ = run(capsys, "correspond", "box p |- p")
    assert code == 0
    assert "x0 R''_box x0" in out


def test_correspond_not_sahlqvist_exit(capsys):
    code, out, _ = run(capsys, "correspond", "p /\\ neg p |- bot")
    assert code == 1
    assert "not-sahlqvist" in out


def test_classify_cotranslation_only(capsys):
    code, out, _ = run(capsys, "classify", "dia dia p |- dia p")
    assert code == 0
    assert "sahlqvist" in out.splitlines()[0]
    assert "translation (rspoon/boxminus): not reducible" in out
    assert "cotranslation" in out and "reduces to" in out


def test_reduce_prints_trace(capsys):
    code, out, _ = run(capsys, "reduce", "box p |- p", "--thread", "translation")
    assert code == 0
    assert "[R4]" in out


def test_json_outputs_are_json(capsys):
    for args in (("classify", "box p |- p", "--json"),
                 ("correspond", "box p |- p", "--json"),
                 ("translate", "box p |- p", "--json")):
        code, out, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["input"] == "box p0 |- p0"


def test_json_thread_entries(capsys):
    """classify omits each thread's start; reduce and correspond give it."""
    keys = {}
    for cmd in ("classify", "reduce", "correspond"):
        code, out, _ = run(capsys, cmd, "box p |- p", "--json")
        assert code == 0
        keys[cmd] = [list(t) for t in json.loads(out)["threads"]]
    assert keys["classify"][0] == ["thread", "imp", "box", "reduced", "system", "trace"]
    assert keys["reduce"][0] == ["thread", "imp", "box", "start", "reduced", "system", "trace"]
    assert keys["correspond"] == keys["reduce"]


def test_json_k2_trace_rules(capsys):
    code, out, _ = run(capsys, "classify", "box (p \\/ q) |- dia p \\/ box q", "--json")
    doc = json.loads(out)
    co = [t for t in doc["threads"] if t["thread"] == "cotranslation" and t["reduced"]]
    assert [st["rule"] for st in co[0]["trace"]] == ["R5.1b", "R5.4", "R6", "R6", "R9"]


def test_not_sahlqvist_json(capsys):
    code, out, _ = run(capsys, "classify", "p /\\ neg p |- bot", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not-sahlqvist"
    assert all(not t["reduced"] for t in doc["threads"])


def test_translate_output(capsys):
    code, out, _ = run(capsys, "translate", "p |- dia p")
    assert code == 0
    assert "1-sequent: P0'' |-1 (diav P0'')''" in out
    assert "d-sequent: (diav P0'')' |-d P0'" in out


def test_verify_frames_dir(capsys):
    code, out, _ = run(capsys, "verify", "box p |- p", "--frames", "frames")
    assert code == 0
    assert "all agree" in out


def test_verify_enumerate(capsys):
    code, out, _ = run(capsys, "verify", "p |- dia p", "--enumerate", "2", "2")
    assert code == 0
    assert "all agree" in out


def test_check_frame(capsys):
    code, out, _ = run(capsys, "check-frame", "frames/polarity-2x2.json")
    assert code == 0
    assert "F1: pass" in out and "F2: pass" in out
    code, out, _ = run(capsys, "check-frame", "frames/bad/not-separated.json")
    assert code == 1
    assert "F1: FAIL" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "box p |- p")
    assert code == 3
    code, _, err = run(capsys, "classify", "box p |- $")
    assert code == 3
    assert "syntax error" in err and "grammar" in err
    code, _, err = run(capsys, "check-frame", "frames/polarity-2x2.json", "--no-validate")
    assert code == 3
    assert "unrecognized arguments: --no-validate" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "classify", "dia dia p |- dia p", "--max-nodes", "3")
    assert code == 2
    assert "node budget" in err


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "correspond", "dia dia p |- dia p", "--trace", "--json")
        outs.add(out)
    assert len(outs) == 1


def test_corpus_green(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "all green" in out


def test_verify_cotranslation_anchor(capsys):
    code, out, _ = run(capsys, "verify", "dia dia p |- dia p", "--enumerate", "2", "2")
    assert code == 0
    assert "anchor y0" in out and "all agree" in out


def test_verify_enumerate_above_the_size_limit(capsys):
    """A carrier over the limit is a resource error up front, not a run that
    silently skips the sizes it cannot enumerate."""
    code, out, err = run(capsys, "verify", "p |- p", "--enumerate", "6", "2", "--json")
    assert code == 2
    assert out == ""
    assert "resource error" in err and "larger than 5" in err


@pytest.mark.parametrize("args", [("--enumerate", "0", "1"), ("--enumerate", "-1", "1"),
                                  ("--enumerate", "1", "1", "--samples", "0"),
                                  ("--enumerate", "1", "1", "--samples", "-3")])
def test_verify_rejects_counts_that_check_nothing(capsys, args):
    """A run over no frames would report agreement having proved nothing."""
    code, out, err = run(capsys, "verify", "box p |- p", *args)
    assert code == 3
    assert out == ""
    assert "must be a positive integer" in err


@pytest.mark.parametrize("args, why", [
    (("--frames", "frames", "--enumerate", "2", "2"), "not allowed with argument --frames"),
    (("--frames", "frames", "--samples", "3"), "--samples only applies to --enumerate")])
def test_verify_rejects_what_frame_files_would_ignore(capsys, args, why):
    """Frame files are checked as they are: a run that dropped the
    enumeration or sample it was asked for would report agreement on other
    frames."""
    code, out, err = run(capsys, "verify", "box p |- p", *args)
    assert code == 3
    assert out == ""
    assert why in err


def test_verify_refuses_an_i_listing_over_the_bound(capsys):
    """At 5+5 the enumerator would list 2^25 I-relations before its first
    draw; the command refuses before any frame.  4+5 and 5+4 pass the check
    (their frames are lazy and not drawn here)."""
    for args in (("--enumerate", "5", "5", "--samples", "1"), ("--enumerate", "5", "5")):
        code, out, err = run(capsys, "verify", "box p |- p", *args)
        assert code == 2
        assert out == ""
        assert "resource error" in err and "2^25" in err and "2^20" in err
    s = parse_dfml("box p |- p")
    for sizes in ((4, 5), (5, 4)):
        _frames_from_args(argparse.Namespace(frames=None, enumerate=sizes, samples=1,
                                             assume_f3=False), s)


def test_verify_refuses_too_many_relation_bits_before_any_frame(capsys, monkeypatch):
    """Without --samples, a size on the way with more than 16 relation bits
    (Rdia has 25 at 5x1) is refused before the search and before any frame
    is checked, not after checking every smaller size."""
    calls = []
    monkeypatch.setattr(cli, "compute_correspondent", lambda *a, **k: calls.append("search"))
    monkeypatch.setattr(cli, "correspondence_oracle", lambda *a: calls.append("oracle"))
    code, out, err = run(capsys, "verify", "p |- dia p", "--enumerate", "5", "2")
    assert code == 2
    assert out == "" and calls == []
    assert "resource error: 2^25 relation combinations at 5x1" in err
    assert "--samples" in err

_FRAME = '{"version": 1, "z1": ["a0"], "zd": ["b0"], '


@pytest.mark.parametrize("text, why", [
    (_FRAME + '"I": [["a0", "b0"]', "not a JSON document"),
    ('[["a0", "b0"]]', "a frame file holds a JSON object, not a list"),
    (_FRAME + '"I": [["a0", "b0", "b0"]]}', "the 'I' field must be a list of lists of 2 names"),
    (_FRAME + '"I": [3]}', "the 'I' field must be a list of lists of 2 names"),
    ('{"version": 1, "z1": [["a0"]], "zd": ["b0"]}', "the 'z1' field must be a list of names")])
def test_check_frame_reports_a_malformed_file(capsys, tmp_path, text, why):
    """A file that is not a frame document is a failed frame check with a
    one-line message, for ``verify --frames`` as for ``check-frame``."""
    (tmp_path / "bad.json").write_text(text)
    for argv in (("check-frame", str(tmp_path / "bad.json")),
                 ("verify", "box p |- p", "--frames", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("frame error: ") and err.count("\n") == 1
        assert why in err


def test_verify_reports_a_disagreement_on_mixed_names(capsys, tmp_path):
    """Point names may be strings or numbers.  K1's first disagreeing 2+2
    frame, its points renamed to mix the two, is reported with its frame
    document, tuples sorted numbers first, and reads back as the same frame."""
    doc = {"version": 1, "z1": ["a", 1], "zd": ["b", 2],
           "I": [["a", "b"], [1, "b"], [1, 2]], "Rdia": [[1, 1]]}
    (tmp_path / "k1.json").write_text(json.dumps(doc))
    k1 = "dia p /\\ box q |- dia (p /\\ q)"
    code, out, err = run(capsys, "verify", k1, "--frames", str(tmp_path))
    assert (code, err) == (1, "")
    assert "k1.json: DISAGREE at a\n" in out
    code, out, err = run(capsys, "verify", k1, "--frames", str(tmp_path), "--json")
    assert (code, err) == (1, "")
    [disagreement] = json.loads(out)["disagreements"]
    written = disagreement["frame_doc"]
    assert written["I"] == [[1, 2], [1, "b"], ["a", "b"]]
    (tmp_path / "back.json").write_text(json.dumps(written))
    frame, back = load_frame(str(tmp_path / "k1.json")), load_frame(str(tmp_path / "back.json"))
    for attr in ("z1", "zd", "i_rel", "r_dia", "r_box", "r_neg", "t_rel"):
        assert getattr(back, attr) == getattr(frame, attr), attr
    assert frame_to_json(back) == written


@pytest.mark.parametrize("files", [(), ("notes.txt",)])
def test_verify_refuses_a_frames_directory_without_frame_files(capsys, tmp_path, monkeypatch,
                                                               files):
    """A directory with no frame file would be reported as all agreeing
    having checked nothing; it is refused before the search."""
    for name in files:
        (tmp_path / name).write_text("{}")
    calls = []
    monkeypatch.setattr(cli, "compute_correspondent", lambda *a, **k: calls.append("search"))
    code, out, err = run(capsys, "verify", "box p |- p", "--frames", str(tmp_path))
    assert code == 3
    assert out == "" and calls == []
    assert err == f"file error: --frames {tmp_path}: no *.json frame file to check\n"


def test_check_frame_of_a_directory_is_a_file_error(capsys, tmp_path):
    code, out, err = run(capsys, "check-frame", str(tmp_path))
    assert code == 3
    assert out == "" and err.startswith("file error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("classify", "p |- p"), ("correspond", "box p |- p"),
                                  ("corpus",)])
def test_a_node_budget_below_one_is_a_usage_error(capsys, argv):
    """No search can succeed without a node."""
    for budget in ("0", "-3"):
        code, out, err = run(capsys, *argv, "--max-nodes", budget)
        assert code == 3
        assert out == ""
        assert "must be a positive integer" in err


def test_verify_refuses_no_validate_with_enumerate(capsys):
    """Enumerated frames are always valid; a flag that changed nothing would
    suggest otherwise."""
    code, out, err = run(capsys, "verify", "box p |- p", "--enumerate", "1", "1", "--no-validate")
    assert code == 3
    assert out == ""
    assert "--no-validate only applies to --frames" in err


def _nested(shape, n):
    """A sequent whose input nests ``n`` operators or parentheses deep."""
    return {"neg": "neg " * n + "p |- p",
            "and": " /\\ ".join(["p"] * (n + 1)) + " |- p",
            "imp": " -> ".join(["p"] * (n + 1)) + " |- p",
            "box": "box " * n + "p |- p",
            "parens": "(" * n + "p" + ")" * n + " |- p",
            "dia-box": "dia " * n + "p |- " + "box " * n + "p"}[shape]


SHAPES = ("neg", "and", "imp", "box", "parens", "dia-box")


@pytest.mark.parametrize("command", [("correspond",), ("verify", "--enumerate", "1", "1")],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("shape", SHAPES)
def test_input_at_the_nesting_bound_runs(capsys, shape, command):
    """No traceback: a verdict, or a resource error (a search over budget,
    or a correspondent too deep for the generated evaluators)."""
    code, _, err = run(capsys, command[0], _nested(shape, MAX_DEPTH), *command[1:],
                       "--max-nodes", "2000")
    assert code in (0, 1) or (code == 2 and err.startswith("resource error"))


@pytest.mark.parametrize("shape", SHAPES)
def test_input_past_the_nesting_bound_is_a_usage_error(capsys, shape):
    code, _, err = run(capsys, "correspond", _nested(shape, MAX_DEPTH + 1))
    assert code == 3
    assert f"nested deeper than {MAX_DEPTH} levels" in err
