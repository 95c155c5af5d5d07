import json

import pytest

from dfmlcorr.cli import main


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
