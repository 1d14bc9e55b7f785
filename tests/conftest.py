import pytest

from cedlite.corpus import load_corpus
from cedlite.typecheck import check_signature


@pytest.fixture(scope="session")
def corpus_sig():
    """The corpus signature shared by every test; one that extends it
    takes `fresh_corpus` instead."""
    sig = load_corpus()
    names = [d.name for d in sig.decls]
    assert len(names) == 86
    yield sig
    assert [d.name for d in sig.decls] == names, "a test extended it"


@pytest.fixture(scope="session")
def corpus_report(corpus_sig):
    return check_signature(corpus_sig)


@pytest.fixture()
def fresh_corpus():
    """A corpus signature safe to extend or mutate within one test."""
    return load_corpus()
