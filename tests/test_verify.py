import pytest

from cocycle_lab import verify


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite('nonesuch')


def test_suite_names():
    assert set(verify.SUITES) == {'tetrahedron', 'cube', 'commutation',
                                  'contractible', 'scan-invariance', 'prop1',
                                  'ckr-oracle'}


def test_prop1_passes():
    rep = verify.run_suite('prop1')
    assert rep.passed and rep.checks >= 4


def test_ckr_oracle_passes():
    rep = verify.run_suite('ckr-oracle')
    assert rep.passed and rep.checks >= 20


def test_tetrahedron_restricted_run():
    rep = verify.run_suite('tetrahedron', params={'ns': (2,)})
    assert rep.passed and rep.checks > 0


def test_contractible_seeded_subset():
    rep = verify.run_suite('contractible', params={'seeds': range(10)})
    # each parameter value of each loop counts as one check
    assert rep.passed and rep.checks >= 10


def test_semi_regular_variant_is_deterministic():
    a = verify.semi_regular_variant([1], verify.CABLE_FIXTURES[0][2], 3)
    b = verify.semi_regular_variant([1], verify.CABLE_FIXTURES[0][2], 3)
    assert a == b


@pytest.mark.parametrize('seed,want', [
    # kind 'tangle': a cancelling generator pair in the closing tangle
    (1, ([1, -1, 1], 'U 2 ; X+ 1 ; X+ 1 ; X+ 1 ; A 2')),
    # kind 'pair': a distant crossing pair in the long word
    (7, ([1], 'U 2 ; X+ 1 ; X+ 2 ; X- 2 ; X+ 1 ; X+ 1 ; A 2')),
    # kind 'curls': a Whitney pair of opposite curls
    (5, ([1], 'U 2 ; X+ 1 ; U 3 ; X+ 3 ; A 4 ; U 4 ; X- 4 ; A 3 ; '
              'X+ 1 ; X+ 1 ; A 2')),
])
def test_semi_regular_variant_outputs(seed, want):
    assert verify.semi_regular_variant([1], verify.CABLE_FIXTURES[0][2], seed) == want


def test_commutation_budget_stops_the_suite():
    rep = verify.suite_commutation({'budget': 10})
    assert rep.passed and rep.checks == 10


def test_scan_invariance_reports_a_disagreeing_variant(monkeypatch):
    calls = []

    def counting(movie):
        calls.append(movie)
        return {1: len(calls)}

    monkeypatch.setattr(verify, 'evaluate_all', counting)
    rep = verify.run_suite('scan-invariance')
    assert rep.checks == 60 and len(rep.failures) == 60
    assert rep.failures[0] == verify.Failure(
        'scan-invariance', 'trefoil seed=0', '{1: 2} != {1: 1}')


def test_prop1_reports_a_lift_that_changes_v2(monkeypatch):
    from cocycle_lab.annular import AnnularDiagram
    unknot = AnnularDiagram(1, [], w0=1).gauss()
    monkeypatch.setattr(verify, 'lift_to_cover', lambda g: unknot)
    rep = verify.run_suite('prop1')
    assert rep.checks == 4
    assert [(f.case, f.detail) for f in rep.failures] == [
        ('trefoil/v2', '2 != 0 after lift'), ('torus25/v2', '6 != 0 after lift'),
        ('fig8/v2', '-2 != 0 after lift'), ('trefoil3/v2', '3 != 0 after lift')]


def test_ckr_oracle_reports_a_disagreeing_skein_count(monkeypatch):
    monkeypatch.setattr(verify, 'conway', lambda d: {0: 1, 2: 100, 4: 100})
    rep = verify.run_suite('ckr-oracle')
    assert rep.checks == 22 and len(rep.failures) == 22
    assert rep.failures[4:6] == [
        verify.Failure('ckr-oracle', 'trefoil/z2', '1 != conway 100'),
        verify.Failure('ckr-oracle', 'trefoil/z4', '0 != conway 100')]


def test_report_summary_text():
    rep = verify.run_suite('prop1')
    assert 'prop1' in rep.summary()
    assert 'pass' in rep.summary()


def _loop_and_open_path():
    from cocycle_lab.discriminant import meridian_loop, quad_host, GLOBAL_TYPES
    from cocycle_lab.cocycle import Movie
    host, slot = quad_host(GLOBAL_TYPES[1], (0, 0, 0, 3), 3)
    loop = meridian_loop(host, slot)
    return loop, Movie(host, loop.moves[:1])


def test_loop_check_counts_one_check_per_a():
    loop, path = _loop_and_open_path()
    rep = verify.SuiteReport('t')
    verify._check_loop_zero(rep, loop, 'loop')
    assert rep.passed and rep.checks == 2
    verify._check_loop_zero(rep, path, 'path')
    assert rep.checks == 2
    assert [(f.case, f.detail) for f in rep.failures] == [('path', 'loop does not close')]


def test_loop_check_failures_keep_their_movie():
    from cocycle_lab.cabling import LONG_TREFOIL, normalize_w1
    from cocycle_lab.loops import push_loop
    _, path = _loop_and_open_path()
    push = push_loop([1], normalize_w1(LONG_TREFOIL, 1), 2)
    rep = verify.SuiteReport('t')
    verify._check_loop_zero(rep, path, 'path')
    assert rep.checks == 0
    verify._check_loop_zero(rep, push, 'push')
    assert rep.checks == 1
    assert [(f.suite, f.case, f.detail) for f in rep.failures] == [
        ('t', 'path', 'loop does not close'), ('t', 'push', 'value 1 at a=1')]
    assert [f.movie for f in rep.failures] == [path, push]


def test_loop_check_reports_an_open_path_before_an_evaluation_error(monkeypatch):
    from cocycle_lab import cocycle

    def broken(*args, **kwargs):
        raise cocycle.CocycleError("unclassifiable")

    # a triple point move that cannot be classified raises as its movie
    # is built
    with monkeypatch.context() as m:
        m.setattr(cocycle, 'classify_r3', broken)
        with pytest.raises(cocycle.CocycleError, match="unclassifiable"):
            _loop_and_open_path()
    # an open path is reported before any evaluation, a loop is evaluated
    loop, path = _loop_and_open_path()
    monkeypatch.setattr(verify, 'evaluate_all', broken)
    rep = verify.SuiteReport('t')
    verify._check_loop_zero(rep, path, 'path')
    assert [f.detail for f in rep.failures] == ['loop does not close']
    with pytest.raises(cocycle.CocycleError):
        verify._check_loop_zero(rep, loop, 'loop')
    assert rep.checks == 0


def test_cube_suite_loops_are_pinned(monkeypatch):
    # every loop the cube suite checks, in order: its case label, the
    # start's Gauss data and the moves
    import hashlib

    digest = hashlib.sha256()
    count = 0

    def record(rep, movie, case):
        nonlocal count
        g = movie.start.gauss()
        line = (case, g.tokens, sorted(g.signs.items()), repr(movie.moves))
        digest.update((repr(line) + "\n").encode())
        count += 1

    monkeypatch.setattr(verify, '_check_loop_zero', record)
    verify.run_suite('cube')
    assert count == 666
    assert digest.hexdigest() == (
        'a38f446a078b56c2fc11613f9370efd6e6fb6990ea63d6966960718e4e9ace46')


def test_cube_suite_validates_each_site_once(monkeypatch):
    # one full build per site: its flag variants are derived, not rebuilt
    import itertools

    from cocycle_lab.annular import AnnularDiagram
    calls = []
    validate = AnnularDiagram.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(AnnularDiagram, 'validate', counted)
    verify.corpus_diagrams()
    corpus = len(calls)
    calls.clear()
    assert verify.run_suite('cube').checks == 1064
    sites = sum(1 for n in (2, 3) for _ in itertools.permutations((1, 2, 3))
                for _ in verify._windings(3, n))
    assert sites == 96
    assert len(calls) <= sites + corpus


@pytest.mark.parametrize('suite, builder', [('tetrahedron', 'quad_host'),
                                            ('cube', 'tangency_hosts')])
def test_a_host_that_cannot_be_built_fails_the_run(monkeypatch, capsys, suite,
                                                   builder):
    # no suite skips an input it generated: the refusal reaches the CLI
    from cocycle_lab.cli import run
    from cocycle_lab.discriminant import HostError

    def broken(*args):
        raise HostError('no host')

    monkeypatch.setattr(verify, builder, broken)
    with pytest.raises(HostError):
        verify.run_suite(suite, params={'ns': (2,)})
    assert run(['verify', '--suite', suite, '--n', '2']) == 2
    assert capsys.readouterr() == ('', 'cocycle-lab: E_HOST: no host\n')


@pytest.mark.parametrize('error', [
    ('E_R3', 'no triple point pattern at slot 0'),
    ('E_R2', 'no cancelling pair at slot 0'),
])
def test_cube_suite_skips_only_cyclic_heights(monkeypatch, error):
    from cocycle_lab.moves import MoveError

    def refused(*args):
        raise MoveError(*error)

    monkeypatch.setattr(verify, 'tangency_loop', refused)
    with pytest.raises(MoveError, match=error[1]):
        verify.run_suite('cube', params={'ns': (2,)})
