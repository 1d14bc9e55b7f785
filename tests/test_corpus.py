import pytest

from cedlite import syntax as S
from cedlite.corpus import FILE_ORDER, corpus_texts
from cedlite.erasure import erase
from cedlite.parser import parse_signature
from cedlite.printer import print_pure
from cedlite.syntax import Signature
from cedlite.typecheck import check_signature


def test_every_declaration_checks(corpus_report):
    for row in corpus_report.decls:
        assert row.ok, f"{row.name}: {row.error}"
    assert corpus_report.ok


def test_every_assertion_holds(corpus_report):
    outcomes = [a for d in corpus_report.decls for a in d.assertions]
    assert outcomes, "corpus carries assertions"
    for a in outcomes:
        assert a.ok, f"{a.description}: {a.detail}"


def test_no_rho_rewrote_nothing(corpus_report):
    assert all(not d.warnings for d in corpus_report.decls)


def test_file_order_is_complete():
    assert len(FILE_ORDER) == 11
    assert FILE_ORDER[0] == "nat.ced"
    assert FILE_ORDER[-1] == "negative.ced"


def test_weakening_consrv_rewrite_fails():
    # the reflection step for the successor case needs the normalizing
    # rewrite; the plain one exposes no matching occurrence
    sig = Signature()
    for name, text in corpus_texts():
        if name == "vec.ced":
            assert "Λ q . ρ+ q - β ." in text
            text = text.replace("Λ q . ρ+ q - β .", "Λ q . ρ q - β .", 1)
        parse_signature(text, filename=name, sig=sig)
    report = check_signature(sig)
    row = next(row for row in report.decls if row.name == "consRV")
    assert row.status == "type error"
    assert any("no occurrences" in w for w in row.warnings)
    # everything before consRV is untouched
    for other in report.decls[:report.decls.index(row)]:
        assert other.ok, other.name


def _contains_rho(node) -> bool:
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, S.Rho):
            return True
        todo += [sub for sub, _ in S.subtrees(node, 0)]
    return False


def test_reused_proofs_carry_no_equational_reasoning(corpus_sig):
    # the walk finds the ρ of a proof that does rewrite
    assert _contains_rho(corpus_sig.lookup("appendAssocV-direct").body)
    # proof reuse is a single application of the reused proof to
    # coerced arguments; no rewriting appears in these bodies
    for name in ("appendAssocL", "appendAssocV", "concatDistAppendV"):
        body = corpus_sig.lookup(name).body
        assert not _contains_rho(body), name


def test_direct_sources_exist_for_both_reuse_directions(corpus_sig):
    for name in ("appendV-direct", "appendAssocV-direct", "appendL-direct",
                 "appendAssocL-direct", "concatL"):
        assert corpus_sig.lookup(name) is not None, name


def test_erasure_claims_have_assertions(corpus_sig):
    asserted = {a.target for d in corpus_sig.decls for a in d.assertions}
    identity_claims = {
        "mkNat", "elimNat", "mkList", "elimList", "mkVec", "elimVec",
        "v2lC", "v2lP", "v2l", "l2vC", "l2vP", "l2v", "mkVecL", "v2u",
        "mapCL-id", "mapPL-id", "mapL-id", "v2l-v2l", "v2u-v2l", "u2l",
        "u2l-l2l",
    }
    erasure_claims = {
        "zero", "suc", "nilCL", "consCL", "nilPL", "consPL", "nilL", "consL",
        "nilCV", "consCV", "nilPV", "consPV", "nilV", "consV",
    }
    reuse_claims = {"appendL", "appendV", "concatV"}
    for name in identity_claims | erasure_claims | reuse_claims | {"v2lC'"}:
        assert name in asserted, name


def test_corpus_readme_mentions_every_assertion(corpus_sig):
    from importlib import resources
    readme = (resources.files("cedlite.corpus") / "README.md").read_text()
    for decl in corpus_sig.decls:
        for a in decl.assertions:
            assert a.target in readme, a.target
        if decl.expect_fail:
            assert decl.name in readme, decl.name


def test_printed_corpus_rechecks_green(corpus_sig):
    # printing renames shadowed binders; checking is name-insensitive
    from cedlite.printer import print_decl
    for ascii_only in (False, True):
        text = "\n".join(print_decl(d, ascii_only=ascii_only)
                         for d in corpus_sig.decls if not d.expect_fail)
        sig = parse_signature(text)
        report = check_signature(sig)
        assert report.ok, [
            (d.name, d.error) for d in report.decls if not d.ok]


def test_empty_signature_reports_ok():
    report = check_signature(Signature())
    assert report.ok and not report.decls


def test_reports_carry_fuel_and_erasures(corpus_report):
    rows = {row.name: row for row in corpus_report.decls}
    assert rows["v2l"].steps_used > 0
    assert print_pure(rows["v2l"].normal_form)
    assert rows["Vec"].normal_form is None  # types do not erase


def test_assertion_on_type_level_name_rejected(fresh_corpus):
    with pytest.raises(Exception, match="no erasure"):
        parse_signature("#assert-id Vec", sig=fresh_corpus)


def test_operational_behavior_against_reference(corpus_sig):
    import church_oracle as oracle
    from cedlite.erasure import PApp
    from cedlite.normalize import normalize

    def resolve(name):
        return erase(corpus_sig.lookup(name).body)

    def run(term):
        nf = normalize(term, corpus_sig).term
        return oracle.evaluate(nf, resolve)

    append = erase(corpus_sig.lookup("appendL").body)
    for i in range(4):
        for j in range(4):
            xs, ys = list(range(i)), list(range(j, j + 4 - j))
            got = oracle.decode_nat_list(
                run(PApp(PApp(append, oracle.church_nat_list(xs)),
                         oracle.church_nat_list(ys))))
            assert got == oracle.ref_append(xs, ys)
