"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``; under plain
pytest the test name itself is the line).  Two parts are expected to fail
and are kept as faithful assertions rather than weakened:

* criterion 7 for the K1 correspondent (the conjunct closure-strip R9 is
  not equivalence-preserving on all separated+smooth frames, and no strip
  of a closure is pointwise-preserving; K1 has no other derivation);
* criterion 10 over all rule applications, for R9, the
  implication-cancellation rule R8 (it fails already on frames with an
  empty ternary relation, where the premiss system is trivially valid but
  the conclusion system is not) and the rspoon-currying rewrite R5.9, whose
  soundness needs a rebracketing property of the derived ternary relation
  that smooth frames can violate.

Contraction also has a translation derivation through R5.9 and R8, but the
engine lists first the correspondent whose derivation uses only rules in
``SOUND_ON_SMOOTH`` (the co-translation one), so its criterion-7 test is
green; a companion still exhibits the R8 gap of the translation derivation.

Companion tests right below each failing one pin down exactly what does
hold (the correspondents characterise their canonical systems pointwise
everywhere; every other rule is equivalence-preserving) and exhibit the
witness frames.  Everything else is green.
"""
import itertools
import random
import time

import pytest

from dfmlcorr.correspondence import compute_correspondent
from dfmlcorr.corpus import CORPUS, run_entry, systems_match
from dfmlcorr.reduction import (
    SOUND_ON_SMOOTH, applicable_moves, canonical_key, classify, parse_inequality_system,
)
from dfmlcorr.semantics import (
    FiniteFrame, bits, correspondence_oracle, enumerate_frames, eval_fo,
    frame_to_json, frame_validity, kripke_frame, local_validity,
    relations_needed, system_equivalence_witness, system_relations_needed,
)
from dfmlcorr.syntax import (
    SORT1, SORTD, IVar, dfml_vars, fo_alpha_eq, parse_dfml, parse_fo,
)

ALL_SIZES = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
SMALL_SIZES = [(i, j) for i in (1, 2) for j in (1, 2)]


def corpus_entry(name):
    return next(e for e in CORPUS if e.name == name)


def pointwise_survey(sequent_text, corr_formula, anchor, sizes, require=("F1", "F2"),
                     sample=None, seed=0):
    """(frames checked, list of (frame, witness point)) for the pointwise oracle."""
    s = parse_dfml(sequent_text)
    rels = relations_needed(s)
    checked, bad = 0, []
    for n1, nd in sizes:
        for fr in enumerate_frames(n1, nd, rels, require=require,
                                   sample=sample, seed=seed):
            checked += 1
            w = correspondence_oracle(fr, s, anchor, corr_formula)
            if w is not None:
                bad.append((fr, w))
    return checked, bad


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- criteria 1-6, 11: symbolic reproduction -------------------------------------------

def _entry_green(name, criterion):
    checks = run_entry(corpus_entry(name))
    bad = [(c, d) for c, ok, d in checks if not ok]
    assert report(criterion, not bad, f"{name}: {len(checks) - len(bad)}/{len(checks)} checks"), bad


def test_criterion01_box_t():
    t0 = time.time()
    res = compute_correspondent(parse_dfml("box p |- p"))
    elapsed = time.time() - t0
    assert fo_alpha_eq(res.primary.formula, parse_fo("x0 R''_box x0"))
    assert elapsed < 1.0
    _entry_green("box-t", 1)


def test_criterion02_dia_t():
    _entry_green("dia-t", 2)


def test_criterion03_dia_4():
    entry = corpus_entry("dia-4")
    cls = classify(parse_dfml(entry.sequent))
    assert not any(r.reduced for r in cls.results if r.thread == "translation")
    assert any(r.reduced for r in cls.results if r.thread == "cotranslation")
    _entry_green("dia-4", 3)


def test_criterion04_k1_k2():
    _entry_green("k1", 4)
    _entry_green("k2", 4)
    # K2's endpoint also matches the printed order of the source, with the
    # intersections commuted, on every small frame.
    mine = next(r.system for r in classify(parse_dfml(corpus_entry("k2").sequent)).successes)
    flipped = parse_inequality_system(
        "P^2 =d P0', P^3 =d P1' | boxv P^2 cap diam P^3 <=d (diam (P^3 cap P^2))''")
    for fr in itertools.islice(enumerate_frames(2, 2, ("Rdia", "Rbox")), 25):
        assert system_equivalence_witness(fr, mine, flipped) is None


def test_criterion04_k1_anchor_slipped_variant_documented():
    """A tempting variant of the K1 correspondent anchors one minimal
    instantiation at the evaluation point instead of the diamond witness
    (and hangs the inner diamond atom off the wrong witness); on a
    two-point classical frame it disagrees with the sequent, so the engine
    derives the instantiation from the witness atom instead."""
    slipped = parse_fo(
        "forall_1 z. (forall_d y. (x0 R_dia z /\\ x0 <= z /\\ x0 I y -> "
        "(exists_1 w. (exists_1 u. (w I y /\\ z R_dia u /\\ x0 <= u /\\ x0 R''_box u)))))")
    s = parse_dfml("dia p /\\ box q |- dia (p /\\ q)")
    fr = kripke_frame(2, r_dia=[(0, 1)])
    anchor = IVar(0, SORT1)
    assert correspondence_oracle(fr, s, anchor, slipped) is not None
    corrected = compute_correspondent(s).primary
    assert correspondence_oracle(fr, s, corrected.anchor, corrected.formula) is None
    report(4, True, "anchor-slipped K1 variant refuted; witness-anchored form shipped")


def test_criterion05_substructural():
    _entry_green("contraction", 5)
    _entry_green("weakening", 5)
    _entry_green("exchange", 5)


def test_criterion06_negatives_and_galois():
    _entry_green("kleene-negation", 6)
    _entry_green("pseudo-complement", 6)
    _entry_green("galois-elim", 6)
    cls = classify(parse_dfml("neg neg p |- p"))
    assert not any(r.reduced for r in cls.results if r.thread == "translation")


def test_criterion11_fisher_servi():
    _entry_green("fisher-servi-1", 11)
    _entry_green("fisher-servi-2", 11)
    cls = classify(parse_dfml("dia p -> box q |- box (p -> q)"))
    used = set()
    for r in cls.successes:
        used |= {st.rule for st in r.trace}
    assert "R7c" in used


# -- criterion 7: oracle equivalence ---------------------------------------------------

def test_criterion07_box_t_exhaustive():
    res = compute_correspondent(parse_dfml("box p |- p"))
    c = res.primary
    checked, bad = pointwise_survey("box p |- p", c.formula, c.anchor, ALL_SIZES)
    assert report(7, not bad, f"box-t: {checked} frames, {len(bad)} disagreements")


def test_criterion07_dia_t_exhaustive():
    res = compute_correspondent(parse_dfml("p |- dia p"), assume_f3=True)
    c = res.primary
    checked, bad = pointwise_survey("p |- dia p", c.formula, c.anchor, ALL_SIZES)
    assert report(7, not bad, f"dia-t: {checked} frames, {len(bad)} disagreements")
    checked, bad = pointwise_survey("p |- dia p", c.f3_formula, c.anchor, ALL_SIZES,
                                    require=("F1", "F2", "F3"))
    assert report(7, not bad, f"dia-t under F3: {checked} frames, {len(bad)} disagreements")


def test_criterion07_dia_4_exhaustive():
    res = compute_correspondent(parse_dfml("dia dia p |- dia p"))
    c = res.primary
    checked, bad = pointwise_survey("dia dia p |- dia p", c.formula, c.anchor, ALL_SIZES)
    assert report(7, not bad, f"dia-4: {checked} frames, {len(bad)} disagreements")


def test_criterion07_galois_pair_exhaustive():
    for text in ("p |- neg neg p", "neg neg p |- p"):
        c = compute_correspondent(parse_dfml(text)).primary
        checked, bad = pointwise_survey(text, c.formula, c.anchor, ALL_SIZES)
        assert report(7, not bad, f"{text}: {checked} frames, {len(bad)} disagreements")


def test_criterion07_k1_as_stated():
    """Faithful to the criterion's letter: separated+smooth frames only.

    Expected to FAIL: the conjunct closure-strip (R9) only preserves the
    validity of the whole inequality, never its pointwise content, and on
    some frames not even that; the companion test pins down what does hold."""
    c = compute_correspondent(parse_dfml(corpus_entry("k1").sequent)).primary
    checked, bad = pointwise_survey(corpus_entry("k1").sequent, c.formula, c.anchor,
                                    SMALL_SIZES)
    ok = report(7, not bad, f"K1 on F1-F2 frames: {checked} frames, {len(bad)} disagreements")
    assert ok, (f"K1 pointwise correspondence fails on {len(bad)} separated+smooth "
                f"frames; first witness: {frame_to_json(bad[0][0])} at {bad[0][1]}; "
                f"the companion test shows the correspondent is exact for the "
                f"canonical system and localises the gap to the R9 step")


def test_criterion07_k1_exact_for_canonical_system():
    """Companion: the K1 correspondent characterises its canonical system
    pointwise on every frame; whenever the single R9 step of the trace is
    equivalence-preserving on a frame, the frame-level correspondence with
    the sequent holds as well."""
    entry = corpus_entry("k1")
    res = compute_correspondent(parse_dfml(entry.sequent))
    c = res.primary
    s = parse_dfml(entry.sequent)
    r9 = next(st for st in c.trace if st.rule == "R9")
    frames = list(itertools.islice(enumerate_frames(2, 2, ("Rdia", "Rbox")), 400))
    frames += list(itertools.islice(
        enumerate_frames(3, 3, ("Rdia", "Rbox"), sample=600, seed=13), 60))
    r9_fails = 0
    for fr in frames:
        for w in range(fr.n1):
            system_pw = all(
                not (1 << w) & lhs or (1 << w) & rhs
                for val in _system_vals(fr, c.system)
                for lhs, rhs in [_system_sides(fr, c.system, val)])
            assert system_pw == eval_fo(fr, c.formula, {c.anchor: w})
        if system_equivalence_witness(fr, r9.before, r9.after) is None:
            assert frame_validity(fr, s) == all(
                eval_fo(fr, c.formula, {c.anchor: w}) for w in range(fr.n1))
        else:
            r9_fails += 1
    assert r9_fails > 0   # the witness documenting the gap exists
    report(7, True, f"K1 exact for its canonical system on {len(frames)} frames; "
                    f"{r9_fails} frames witness the R9 gap")


def test_criterion07_contraction_as_stated():
    """Faithful to the criterion's letter.  The primary correspondent is the
    co-translation one, derived by R4, R6 and R2 only, all in
    ``SOUND_ON_SMOOTH``; the translation derivation, whose R8 step is not
    equivalence-preserving, is the companion's subject."""
    entry = corpus_entry("contraction")
    c = compute_correspondent(parse_dfml(entry.sequent)).primary
    checked, bad = pointwise_survey(entry.sequent, c.formula, c.anchor, SMALL_SIZES)
    ok = report(7, not bad,
                f"contraction on F1-F2 frames: {checked} frames, {len(bad)} disagreements")
    assert ok, (f"contraction correspondence fails on {len(bad)} frames; "
                f"first witness: {frame_to_json(bad[0][0])} at point {bad[0][1]}; "
                f"the witness documenting the R8 gap is the companion test")


def test_criterion07_contraction_gap_witnessed():
    """Companion: the translation correspondent of contraction does
    correspond to its canonical system everywhere; the gap is introduced by
    the R8 step, and an empty-ternary-relation frame separates the systems,
    so that correspondent does not match the sequent."""
    entry = corpus_entry("contraction")
    res = compute_correspondent(parse_dfml(entry.sequent))
    c = next(c for c in res.correspondents if c.thread == "translation")
    sys = c.system
    # the correspondent characterises the canonical system pointwise
    for fr in itertools.islice(enumerate_frames(2, 2, ("T",)), 150):
        for w in range(fr.n1):
            holds = all(
                not (1 << w) & lhs or (1 << w) & rhs
                for val in _system_vals(fr, sys)
                for lhs, rhs in [_system_sides(fr, sys, val)])
            assert holds == eval_fo(fr, c.formula, {c.anchor: w})
    # and an empty-T frame separates the R8 premiss from its conclusion
    fr = kripke_frame(1)
    trace = c.trace
    r8 = next(st for st in trace if st.rule == "R8")
    assert system_equivalence_witness(fr, r8.before, r8.after) is not None
    assert frame_validity(fr, parse_dfml(entry.sequent))
    assert not eval_fo(fr, c.formula, {c.anchor: 0})
    report(7, True, "contraction gap localised to the R8 step, witness exhibited")


def _system_vals(fr, sys):
    from dfmlcorr.semantics import system_valuations
    return system_valuations(fr, (sys,))


def _system_sides(fr, sys, val):
    from dfmlcorr.semantics import model_check_sorted
    return (model_check_sorted(fr, val, sys.main.lhs),
            model_check_sorted(fr, val, sys.main.rhs))


# -- criterion 8: the Galois-negation axiom --------------------------------------------

def _neg_composite_symmetric(fr) -> bool:
    comp = set()
    for x in range(fr.n1):
        for y in bits(fr.irow[x]):
            for z in bits(fr.rneg_arg[y]):
                comp.add((x, z))
    return all((z, x) in comp for x, z in comp)


def _neg_dual_symmetric(fr) -> bool:
    return all(bool(fr.rpneg[z] >> x & 1) == bool(fr.rpneg[x] >> z & 1)
               for z in range(fr.n1) for x in range(fr.n1))


def test_criterion08_galois_negation_symmetry():
    res = compute_correspondent(parse_dfml("p |- neg neg p"), assume_f3=True)
    c = res.primary
    checked = 0
    for n1, nd in [(2, 2), (3, 3)]:
        for fr in enumerate_frames(n1, nd, ("Rneg",)):
            checked += 1
            everywhere = all(eval_fo(fr, c.f3_formula, {c.anchor: w})
                             for w in range(fr.n1))
            sym_comp = _neg_composite_symmetric(fr)
            sym_dual = _neg_dual_symmetric(fr)
            assert everywhere == sym_comp == sym_dual, frame_to_json(fr)
    assert report(8, True, f"symmetry triple-equivalence on {checked} frames")


# -- criterion 9: classical collapse ----------------------------------------------------

def test_criterion09_classical_collapse():
    box_corr = compute_correspondent(parse_dfml("box p |- p")).primary
    dia_corr = compute_correspondent(parse_dfml("p |- dia p")).primary
    dia4_corr = compute_correspondent(parse_dfml("dia dia p |- dia p")).primary
    frames = 0
    for n in (1, 2, 3, 4):
        full = (1 << (n * n)) - 1
        step = 1 if n <= 3 else 7          # all frames up to 3, a lattice at 4
        for relbits in range(0, full + 1, step):
            pairs = [(i, j) for k, (i, j) in enumerate(
                (i, j) for i in range(n) for j in range(n)) if relbits >> k & 1]
            fr = kripke_frame(n, r_dia=pairs, r_box=pairs, validate=False)
            frames += 1
            assert fr.stable1 == list(range(1 << n))
            for x in range(n):
                assert set(bits(fr.rdbox[x])) == {z for w, z in pairs if w == x}
                assert set(bits(fr.rddia[x])) == {z for w, z in pairs if w == x}
            rel = set(pairs)
            for w in range(n):
                assert eval_fo(fr, box_corr.formula, {box_corr.anchor: w}) == \
                    ((w, w) in rel)
                assert eval_fo(fr, dia_corr.formula, {dia_corr.anchor: w}) == \
                    ((w, w) in rel)
                transitive_at = all((w, b) in rel
                                    for a in range(n) if (w, a) in rel
                                    for b in range(n) if (a, b) in rel)
                assert eval_fo(fr, dia4_corr.formula, {dia4_corr.anchor: w}) == \
                    transitive_at
    assert report(9, True, f"classical collapse on {frames} Kripke frames")


# -- criterion 10: rule soundness -------------------------------------------------------

def _collect_applications():
    """Rule applications arising from the corpus: every trace step of every
    thread, plus the one-step fan-out of every system a trace visits."""
    apps = []
    systems = []
    for entry in CORPUS:
        res = compute_correspondent(parse_dfml(entry.sequent))
        for r in res.classification.results:
            if not r.reduced:
                continue
            for st in r.trace:
                apps.append((st.rule, st.before, st.after))
                systems.append(st.before)
            systems.append(r.system)
        for c in res.correspondents:
            for st in c.trace:
                apps.append((st.rule, st.before, st.after))
    seen = set()
    rng = random.Random(7)
    for sys in systems:
        key = canonical_key(sys)
        if key in seen:
            continue
        seen.add(key)
        moves = list(applicable_moves(sys))
        if len(moves) > 6:
            moves = rng.sample(moves, 6)
        for rule, _site, child in moves:
            apps.append((rule, sys, child))
    return apps


_FRAME_FAMILIES: dict = {}


def _frames_for(rels, require=("F1", "F2")):
    """Separated+smooth 2+2 frames over the given base relations, enumerated
    once and reused across applications.  Families over one or two relations
    are exhaustive; the three-relation family (only reached by Fisher-Servi
    fan-out applications) is a seeded sample of its 0.6M-candidate space."""
    key = (rels, require)
    if key not in _FRAME_FAMILIES:
        bits_needed = sum({"Rdia": 4, "Rbox": 4, "Rneg": 4, "T": 8}[r] for r in rels)
        sample = None if bits_needed <= 12 else 1500
        _FRAME_FAMILIES[key] = list(
            enumerate_frames(2, 2, rels, require=require, sample=sample, seed=23))
    return _FRAME_FAMILIES[key]


_APP_VERDICTS: dict = {}


def _check_application(rule, before, after, require=("F1", "F2")):
    key = (rule, canonical_key(before), canonical_key(after), require)
    if key in _APP_VERDICTS:
        return _APP_VERDICTS[key]
    rels = system_relations_needed(before, after)
    verdict = None
    for fr in _frames_for(rels, require):
        val = system_equivalence_witness(fr, before, after)
        if val is not None:
            verdict = (fr, val)
            break
    _APP_VERDICTS[key] = verdict
    return verdict


_SAMPLE_CACHE: list = []


def _sample_thousand():
    if not _SAMPLE_CACHE:
        apps = _collect_applications()
        rng = random.Random(42)
        picked = [apps[rng.randrange(len(apps))] for _ in range(1000)]
        unique = {}
        for rule, before, after in picked:
            unique.setdefault((rule, canonical_key(before), canonical_key(after)),
                              (rule, before, after))
        _SAMPLE_CACHE.append((picked, unique))
    return _SAMPLE_CACHE[0]


def test_criterion10_rule_soundness_as_stated():
    """Faithful to the criterion's letter.  Expected to FAIL: applications
    of R8 (and of R5.9 and R9 outside monotone frames) are not
    equivalence-preserving on every separated+smooth frame; companions below
    carve out the sound subset and exhibit witnesses."""
    picked, unique = _sample_thousand()
    bad_rules = {}
    verdicts = {}
    for key, (rule, before, after) in unique.items():
        verdicts[key] = _check_application(rule, before, after)
        if verdicts[key] is not None:
            bad_rules.setdefault(rule, 0)
        if verdicts[key] is not None:
            bad_rules[rule] += 1
    failing = sum(1 for r, b, a in picked
                  if verdicts[(r, canonical_key(b), canonical_key(a))] is not None)
    ok = report(10, failing == 0,
                f"{len(picked)} sampled applications ({len(unique)} unique), "
                f"{failing} not equivalence-preserving; by rule: {bad_rules}")
    assert ok, (f"non-equivalence-preserving applications found, by rule: {bad_rules}; "
                f"see companion tests for the sound subset and witnesses")


def test_criterion10_sound_subset_green():
    """Companion: every application of the rules whose side conditions fully
    justify them is equivalence-preserving on all separated+smooth frames up
    to 2+2."""
    _, unique = _sample_thousand()
    checked = 0
    for rule, before, after in unique.values():
        if rule not in SOUND_ON_SMOOTH:
            continue
        checked += 1
        witness = _check_application(rule, before, after)
        assert witness is None, (rule, str(before), str(after),
                                 frame_to_json(witness[0]))
    assert report(10, True, f"sound-rule subset: {checked} unique applications green")


def test_criterion10_validity_preserving_witnesses_exist():
    """Companion: the three top-level transformation rules that are only
    validity-preserving under extra frame structure (R8 cancellation, R5.9
    currying, R9 conjunct-strip) each admit a separated+smooth frame on
    which some application from the corpus is not equivalence-preserving."""
    _, unique = _sample_thousand()
    found = {"R8": 0, "R5.9": 0, "R9": 0}
    for rule, before, after in unique.values():
        if rule in found and found[rule] == 0:
            if _check_application(rule, before, after) is not None:
                found[rule] += 1
    assert all(found.values()), found
    report(10, True, "witnesses for the three over-strong rules exhibited")
