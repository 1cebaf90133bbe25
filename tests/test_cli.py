import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import cli, loops, verify
from cocycle_lab.annular import AnnularDiagram, parse_events
from cocycle_lab.cli import build_parser, run


def test_eval_push_prints_value(capsys):
    rc = run(['eval', '--push', '--tangle', 's1', '--knot', 'trefoil',
              '--n', '2', '--w1', '1', '--a', '1'])
    assert rc == 0
    assert capsys.readouterr().out.strip() == '1'


def test_eval_value_goes_to_out(tmp_path, capsys):
    out = tmp_path / 'v.txt'
    assert run(['eval', '--push', '--tangle', 's1', '--knot', 'trefoil',
                '--n', '2', '--w1', '1', '--a', '1', '--out', str(out)]) == 0
    assert capsys.readouterr() == ('', '')
    assert out.read_text() == '1\n'


def test_eval_report_json(capsys):
    rc = run(['eval', '--push', '--tangle', 's1', '--knot', 'torus25',
              '--n', '2', '--w1', '2'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['values'] == {'1': 9}
    assert payload['polynomial_text'] == '9'


def test_eval_explain_lists_contributions(capsys):
    rc = run(['eval', '--push', '--tangle', 's1', '--knot', 'trefoil',
              '--n', '2', '--w1', '1', '--explain'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload['moves']['1']
    assert sum(r['contribution'] for r in rows) == 1


def test_output_is_deterministic(capsys):
    argv = ['eval', '--rot', '--tangle', 's1', '--knot', 'trefoil',
            '--n', '2', '--w1', '1']
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def test_pairing_json(capsys):
    rc = run(['pairing', '--left', 'unknot.morse', '--right', 'trefoil.morse',
              '--n', '2', '--w1', '1'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['values'] == {'1': 1}


def test_cable_command(capsys):
    rc = run(['cable', '--tangle', 's1', '--knot', 'trefoil', '--n', '2'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['n'] == 2
    assert payload['morse'].startswith('X+ 1')


def test_loops_meridian(capsys):
    rc = run(['loops', '--meridian', '2', '--n', '2'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['closed'] is True
    assert payload['moves'].count('R3') == 8


def test_oracle_conway(capsys):
    rc = run(['oracle', 'conway', '--knot', 'torus25'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['conway'] == {'0': 1, '2': 3, '4': 1}


def test_invariants(capsys):
    assert run(['invariant', 'v2', '--knot', 'trefoil']) == 0
    assert capsys.readouterr().out.strip() == '1'
    assert run(['invariant', 'w1', '--knot', 'trefoil']) == 0
    assert capsys.readouterr().out.strip() == '1'
    assert run(['invariant', 'c2k', '--knot', 'torus25', '--k', '2']) == 0
    assert capsys.readouterr().out.strip() == '1'


def test_verify_command_exit_code(capsys):
    assert run(['verify', '--suite', 'prop1']) == 0
    out = capsys.readouterr().out
    assert 'prop1: pass' in out


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / 'report.json'
    assert run(['verify', '--suite', 'prop1', '--report', str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload['passed'] is True
    capsys.readouterr()


def test_bad_knot_is_a_usage_error(capsys):
    assert run(['eval', '--push', '--knot', 'nonesuch', '--n', '2',
                '--a', '1']) == 2
    assert 'cocycle-lab' in capsys.readouterr().err


def test_parser_covers_all_commands():
    ap = build_parser()
    sub = next(a for a in ap._actions if hasattr(a, 'choices') and a.choices)
    assert set(sub.choices) == {'cable', 'loops', 'eval', 'pairing',
                                'verify', 'oracle', 'invariant'}


def test_caps_env(monkeypatch, capsys):
    monkeypatch.setenv('COCYCLE_LAB_CAPS', 'crossings=4')
    assert run(['oracle', 'conway', '--knot', 'torus25']) == 2
    assert 'cocycle-lab' in capsys.readouterr().err
    monkeypatch.delenv('COCYCLE_LAB_CAPS')
    import cocycle_lab.oracle as oracle
    oracle.CROSSING_CAP = 16


def test_bad_caps_env_is_a_coded_error(monkeypatch, capsys):
    monkeypatch.setenv('COCYCLE_LAB_CAPS', 'crossings=abc')
    assert run(['invariant', 'v2', '--knot', 'trefoil']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('cocycle-lab: E_CAPS:')


def test_caps_env_holds_for_one_call(monkeypatch, capsys):
    monkeypatch.setenv('COCYCLE_LAB_CAPS', 'crossings=2')
    assert run(['oracle', 'conway', '--knot', 'trefoil']) == 2
    assert capsys.readouterr().err.startswith('cocycle-lab: E_CAP:')
    monkeypatch.delenv('COCYCLE_LAB_CAPS')
    assert run(['oracle', 'conway', '--knot', 'trefoil']) == 0
    assert json.loads(capsys.readouterr().out)['text'] == '1 + z^2'


@pytest.mark.parametrize('caps', ['crossing=1', 'crossings=-1'])
def test_unknown_or_negative_cap_is_a_coded_error(monkeypatch, capsys, caps):
    monkeypatch.setenv('COCYCLE_LAB_CAPS', caps)
    assert run(['oracle', 'conway', '--knot', 'trefoil']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('cocycle-lab: E_CAPS:')


@pytest.mark.parametrize('argv', [['oracle', 'foo', '--knot', 'trefoil'],
                                  ['invariant', 'foo', '--knot', 'trefoil']])
def test_unknown_oracle_or_invariant_is_refused_by_the_parser(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith('cocycle-lab: E_ARGS: ')
    assert 'invalid choice' in err


@pytest.mark.parametrize('argv, words', [
    (['eval', '--push', '--knot', 'trefoil', '--n', 'x'],
     "argument --n: invalid int value: 'x'"),
    (['eval', '--push', '--knot', 'trefoil'],
     'the following arguments are required: --n'),
])
def test_parser_usage_errors_are_coded(capsys, argv, words):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == f'cocycle-lab: E_ARGS: {words}\n'


@pytest.mark.parametrize('argv', [['--help'], ['eval', '--help']])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith('usage: cocycle-lab')
    assert captured.err == ''


def test_eval_explain_at_one_a(capsys):
    argv = ['eval', '--push', '--tangle', 's1,s2', '--knot', 'trefoil',
            '--n', '3', '--w1', '1', '--explain']
    assert run(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert run(argv + ['--a', '2']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {'n': 3, 'values': {'2': full['values']['2']},
                       'moves': {'2': full['moves']['2']}}
    assert sum(r['contribution'] for r in payload['moves']['2']) == 2


@pytest.mark.parametrize("argv", [
    ['eval', '--push', '--tangle', 's1,s2', '--knot', 'trefoil', '--n', '3',
     '--w1', '1'],
    ['eval', '--push', '--tangle', 's1,s2', '--knot', 'trefoil', '--n', '3',
     '--w1', '1', '--a', '2'],
    ['pairing', '--left', 'unknot.morse', '--right', 'trefoil.morse',
     '--n', '2', '--w1', '1'],
], ids=['eval', 'eval-a', 'pairing'])
def test_report_rows_are_built_only_for_explain(monkeypatch, capsys, argv):
    asked = []
    for name in ('evaluate', 'evaluate_all'):
        fn = getattr(cli, name)

        def recorded(*args, fn=fn, **kwargs):
            asked.append(kwargs.get('report', False))
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ['--explain']) == 0
    explained = json.loads(capsys.readouterr().out)
    assert asked == [False, True]
    if '--a' in argv:
        assert json.loads(plain) == explained['values']['2']
    else:
        assert json.loads(plain)['values'] == explained['values']


def test_verify_n_for_a_suite_without_n_is_a_usage_error(capsys):
    assert run(['verify', '--suite', 'prop1', '--n', '3']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('cocycle-lab: E_ARGS:')


def test_verify_n_applies_to_suites_that_take_it(capsys):
    assert run(['verify', '--suite', 'tetrahedron', '--n', '2']) == 0
    assert 'tetrahedron: pass (60 checks' in capsys.readouterr().out
    help_text = build_parser()._subparsers._group_actions[0].choices['verify'].format_help()
    assert 'tetrahedron and cube suites only' in ' '.join(help_text.split())


@pytest.mark.parametrize('argv', [
    ['loops', '--meridian', '1', '--n', '0'],
    ['loops', '--cube', '--n', '0', '--windings', '0', '0', '0'],
    ['verify', '--suite', 'tetrahedron', '--n', '0'],
    ['invariant', 'v2', '--knot', 'trefoil', '--n', '0'],
    ['cable', '--knot', 'trefoil', '--n', '0'],
    ['eval', '--push', '--tangle', 's1', '--knot', 'trefoil', '--n', '1'],
    ['eval', '--push', '--knot', 'trefoil', '--n', '1', '--a', '1'],
    ['pairing', '--left', 'unknot', '--right', 'trefoil', '--n', '1'],
    ['verify', '--suite', 'tetrahedron', '--n', '1'],
    ['verify', '--suite', 'cube', '--n', '1'],
    ['verify', '--n', '1'],
])
def test_bad_n_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('cocycle-lab: E_ARGS:')


def _io_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith('cocycle-lab: E_IO:')
    return err


def test_negative_k_is_refused_with_a_coded_message(capsys):
    assert run(['invariant', 'c2k', '--knot', 'trefoil', '--k', '-1']) == 2
    assert capsys.readouterr() == (
        '', 'cocycle-lab: E_ARGS: c2k needs k >= 0, got -1\n')


@pytest.mark.parametrize('k', ['0', '1'])
def test_c2k_refuses_a_cable_for_every_k(capsys, k):
    # the class is checked before the k = 0 coefficient is returned
    argv = ['invariant', 'c2k', '--knot', 'trefoil', '--tangle', 's1', '--n', '2']
    assert run(argv + ['--k', k]) == 2
    assert capsys.readouterr() == (
        '', 'cocycle-lab: E_ARGS: Conway-style counts need a class-1 diagram\n')
    assert run(['invariant', 'c2k', '--knot', 'trefoil', '--k', k]) == 0
    assert capsys.readouterr() == ('1\n', '')


def test_unwritable_out_is_a_coded_error(tmp_path, capsys):
    missing = tmp_path / 'no-such-dir' / 'x.json'
    _io_error(['cable', '--tangle', 's1', '--knot', 'trefoil', '--n', '2',
               '--out', str(missing)], capsys)
    _io_error(['verify', '--suite', 'prop1', '--report', str(missing)], capsys)
    assert not missing.parent.exists()


def test_unreadable_knot_file_is_a_coded_error(tmp_path, capsys):
    _io_error(['invariant', 'v2', '--knot', str(tmp_path)], capsys)
    bad = tmp_path / 'bad.morse'
    bad.write_bytes(b'U 2 ; X+ 1 ; \xff\xfe')
    assert 'bad.morse' in _io_error(['invariant', 'v2', '--knot', str(bad)], capsys)


def test_knot_file_is_read(tmp_path, capsys):
    path = tmp_path / 'knot.morse'
    path.write_text('U 2 ; X+ 1 ; X+ 1 ; X+ 1 ; A 2\n')
    assert run(['invariant', 'v2', '--knot', str(path)]) == 0
    assert capsys.readouterr().out.strip() == '1'


@pytest.mark.parametrize('argv, code', [
    (['eval', '--push', '--tangle', 's1', '--knot', 'trefoil', '--n', '2',
      '--w1', '1', '--a', '5'], 'E_ARGS'),
    (['invariant', 'c2k', '--knot', 'trefoil', '--k', '-1'], 'E_ARGS'),
    (['cable', '--tangle', 'sx', '--knot', 'trefoil', '--n', '2'], 'E_TANGLE'),
    (['cable', '--tangle', 's1s2', '--knot', 'trefoil', '--n', '2'], 'E_TANGLE'),
    (['eval', '--push', '--knot', 'nonesuch', '--n', '2', '--a', '1'], 'E_KNOT'),
    (['loops', '--cube', '--n', '2', '--windings', '1', '1', '1'], 'E_HOST'),
    (['pairing', '--left', 'trefoil', '--right', 'trefoil', '--n', '2'], 'E_PLAN'),
    (['eval', '--rot', '--tangle', 's2,s1', '--knot', 'trefoil', '--n', '3'],
     'E_PLAN'),
])
def test_library_errors_carry_a_code(argv, code, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith(f'cocycle-lab: {code}: ')


# argv fragments argparse accepts: each command with the flags it takes
_FLAGS = {
    'cable': ('--tangle', '--knot', '--n'),
    'loops --push': ('--tangle', '--knot', '--n'),
    'eval': ('--tangle', '--knot', '--n', '--a'),
    'eval --push': ('--tangle', '--knot', '--n', '--a'),
    'eval --rot': ('--tangle', '--knot', '--n', '--a'),
    'eval --scan': ('--tangle', '--knot', '--n', '--a'),
    'eval --full-twist': ('--tangle', '--knot', '--n', '--a'),
    'invariant v2': ('--tangle', '--knot', '--n'),
    'invariant c2k': ('--tangle', '--knot', '--n', '--k'),
    'oracle conway': ('--knot',),
}
_REQUIRED = {'cable': ('--knot', '--n'), 'loops': ('--n',), 'eval': ('--n',),
             'invariant': ('--knot',), 'oracle': ('--knot',)}
_VALUES = {
    '--tangle': st.sampled_from(('', 's1', "s1'", 's2', 's1,s2', "s2,s1'",
                                 's1 s1 s1', '-1', '0', 's3', 'sx', 's1s2',
                                 "s1''", "'", 's')),
    '--knot': st.sampled_from(('unknot', 'trefoil', 'fig8', 'mirror-trefoil',
                               'torus25', 'trefoil.morse', 'nonesuch', '',
                               'X+ 1', 'U 2 ; X+ 1 ; A 2', 'U 2 ; X+ 3 ; A 2',
                               'U 1', 'U 2 ; X+ 1 ; X+ 1 ; A 1')),
    '--n': st.integers(-1, 3),
    '--a': st.integers(-1, 3),
    '--k': st.integers(-1, 3),
}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_accepted_argv_ends_in_a_status_with_a_coded_error(data):
    command = data.draw(st.sampled_from(sorted(_FLAGS)), label="command")
    argv = command.split()
    for flag in _FLAGS[command]:
        if flag in _REQUIRED[argv[0]] or data.draw(st.booleans(), label=f"{flag}?"):
            argv += [flag, str(data.draw(_VALUES[flag], label=flag))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    assert status in (0, 1, 2), argv
    if status == 2:
        assert err.getvalue().startswith('cocycle-lab: E_'), (argv, err.getvalue())
    assert 'Traceback' not in err.getvalue(), argv


def test_command_outputs_are_pinned(capsys):
    # stdout, stderr and exit status of a fixed set of command lines:
    # eval --explain over the transport grid, the other commands, and
    # three coded errors
    import hashlib

    grid = [('--push', 'trefoil', '1', n) for n in (2, 3, 4)] + [
        ('--push', 'torus27', '2', 2), ('--push', 'torus27', '2', 3),
        ('--push', 'torus25', '2', 2),
    ] + [(kind, knot, w1, 2) for knot, w1 in (('trefoil', '1'), ('fig8', '-1'))
         for kind in ('--rot', '--scan', '--full-twist')]
    lines = [['eval', kind, '--tangle', ','.join(f's{i}' for i in range(1, n)),
              '--knot', knot, '--n', str(n), '--w1', w1, '--explain']
             for kind, knot, w1, n in grid]
    lines += [
        ['pairing', '--left', 'unknot.morse', '--right', 'trefoil.morse',
         '--n', '2', '--w1', '1', '--explain'],
        ['loops', '--push', '--tangle', 's1', '--knot', 'trefoil', '--n', '2',
         '--w1', '1'],
        ['loops', '--meridian', '2', '--n', '3', '--windings', '0', '1', '0', '2'],
        ['loops', '--cube', '--n', '2', '--order', '2', '1', '3',
         '--windings', '0', '1', '1', '--flags', '-', '+', '-'],
        ['verify', '--suite', 'cube'],
        ['verify', '--suite', 'commutation'],
        ['verify', '--suite', 'prop1'],
        ['verify', '--suite', 'ckr-oracle'],
        ['invariant', 'v2', '--knot', 'fig8', '--tangle', 's1', '--n', '2'],
        ['oracle', 'conway', '--knot', 'torus25'],
        ['oracle', 'conway', '--knot', 'U 2 ; A 2 ; U 2 ; A 2'],
        ['invariant', 'v2', '--knot', 'U 2 ; X+ 3 ; A 2'],
        ['cable', '--tangle', '', '--knot', 'trefoil', '--n', '2'],
    ]
    digest = hashlib.sha256()
    for argv in lines:
        status = run(argv)
        captured = capsys.readouterr()
        digest.update(repr((argv, captured.out, captured.err, status)).encode())
    assert len(lines) == 25
    assert digest.hexdigest() == (
        '02ac88994cd3064df0e60d7d72a03488942c44b79a1f88cff694ae0f9167c354')


# -- the start diagram's size -------------------------------------------

MAX_START = cli.MAX_START_CROSSINGS
TWIST_LOOPS = ('--rot', '--scan', '--full-twist')


def _kinked(c):
    """A long unknot word with c kink crossings, as literal Morse text."""
    return ' ; '.join(['U 1 ; X- 1 ; A 2'] * c)


def _loop_argv(command, flag, crossings):
    """A class-2 loop whose start diagram has the given number of
    crossings: a tangle of s1s, the full twist (two crossings) unless it
    is a push loop, and four per crossing of the knot."""
    extra = 0 if flag == '--push' else 2
    c = (crossings - extra - 1) // 4
    tangle = ','.join(['s1'] * (crossings - extra - 4 * c))
    return [command, flag, '--tangle', tangle, '--knot', _kinked(c), '--n', '2']


@pytest.fixture
def nothing_built(monkeypatch):
    """Planners and the framing kinks fail if an input reaches them."""
    def reached(*args):
        raise AssertionError('the loop was built')

    for name in ('push_loop', 'rotation_loop', 'scan_path',
                 'push_full_twist_loop', 'pairing', 'framed_word',
                 'meridian_loop', 'tangency_loop'):
        monkeypatch.setattr(cli, name, reached)


_KINDS = {'--push': [], '--rot': [], '--scan': [], '--full-twist': [],
          '--meridian': ['1'], '--cube': []}
_ONE_LOOP = ('one of the arguments --push --rot --scan --full-twist{} is '
             'required')


@pytest.mark.parametrize('command, kinds, message', [
    ('eval', ['--push', '--rot'], 'argument --rot: not allowed with argument --push'),
    ('eval', ['--full-twist', '--scan'],
     'argument --scan: not allowed with argument --full-twist'),
    ('eval', [], _ONE_LOOP.format('')),
    ('loops', ['--meridian', '--push'],
     'argument --push: not allowed with argument --meridian'),
    ('loops', ['--rot', '--cube'], 'argument --cube: not allowed with argument --rot'),
    ('loops', [], _ONE_LOOP.format(' --meridian --cube')),
])
def test_a_command_line_names_exactly_one_loop_kind(
        nothing_built, monkeypatch, capsys, command, kinds, message):
    # refused by the parser: no knot is read and no host is built
    def reached(*args):
        raise AssertionError('an input was read')

    for name in ('_knot_text', 'quad_host', 'tangency_host'):
        monkeypatch.setattr(cli, name, reached)
    argv = [command] + [arg for kind in kinds for arg in [kind] + _KINDS[kind]]
    argv += ['--tangle', 's1', '--knot', 'trefoil', '--n', '2', '--w1', '1']
    assert run(argv + (['--a', '1'] if command == 'eval' else [])) == 2
    assert capsys.readouterr() == ('', f'cocycle-lab: E_ARGS: {message}\n')


@pytest.mark.parametrize('flag', ('--push',) + TWIST_LOOPS)
@pytest.mark.parametrize('command', ['loops', 'eval'])
def test_oversized_start_is_refused_before_the_loop_is_built(
        nothing_built, capsys, command, flag):
    assert run(_loop_argv(command, flag, MAX_START + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == (
        f'cocycle-lab: E_ARGS: the start diagram has {MAX_START + 1} crossings; '
        f'at most {MAX_START} are accepted\n')
    # one crossing fewer is built
    with pytest.raises(AssertionError, match='the loop was built'):
        run(_loop_argv(command, flag, MAX_START))


@pytest.mark.parametrize('argv', [
    # framed far past the bound: refused before the kinks are written
    ['eval', '--push', '--tangle', 's1', '--knot', 'trefoil', '--n', '2',
     '--w1', str(10 ** 12), '--a', '1'],
    ['pairing', '--left', 'unknot', '--right', 'trefoil', '--n', '2',
     '--w1', str(MAX_START)],
    ['pairing', '--left', 'unknot', '--right', _kinked(-(-MAX_START // 4)),
     '--n', '2'],
    ['loops', '--meridian', '1', '--n', str(MAX_START)],
    ['loops', '--cube', '--n', str(MAX_START)],
])
def test_oversized_pairing_framing_and_hosts_are_refused(nothing_built, capsys,
                                                         argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(
        'cocycle-lab: E_ARGS: the start diagram has ')


@pytest.mark.parametrize('n', [MAX_START + 2, 10 ** 5, 10 ** 6])
@pytest.mark.parametrize('flag', [['--meridian', '1'], ['--cube']],
                         ids=['meridian', 'cube'])
def test_oversized_hosts_are_refused_before_they_are_built(
        nothing_built, monkeypatch, capsys, flag, n):
    # a class-n diagram has at least n - 1 crossings, and a host takes
    # time quadratic in n to build, so n - 1 is checked before the host
    def reached(*args):
        raise AssertionError('the host was built')

    for name in ('quad_host', 'tangency_host'):
        monkeypatch.setattr(cli, name, reached)
    assert run(['loops', *flag, '--n', str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == (
        f'cocycle-lab: E_ARGS: the start diagram has at least {n - 1} crossings; '
        f'at most {MAX_START} are accepted\n')
    # at n - 1 = MAX_START the host is built, and its own count decides
    with pytest.raises(AssertionError, match='the host was built'):
        run(['loops', *flag, '--n', str(MAX_START + 1)])


@pytest.mark.parametrize('n', [MAX_START + 2, 10 ** 5])
@pytest.mark.parametrize('suite', [['--suite', 'tetrahedron'], ['--suite', 'cube'], []],
                         ids=['tetrahedron', 'cube', 'all'])
def test_verify_refuses_oversized_hosts_before_any_suite_runs(
        monkeypatch, capsys, suite, n):
    # the same bound as for `loops`: the suites' hosts have at least
    # n - 1 crossings and take time quadratic in n to build
    def reached(*args):
        raise AssertionError('a host was built')

    for name in ('quad_host', 'tangency_hosts'):
        monkeypatch.setattr(verify, name, reached)
    assert run(['verify', *suite, '--n', str(n)]) == 2
    assert capsys.readouterr() == ('', (
        f'cocycle-lab: E_ARGS: the start diagram has at least {n - 1} crossings; '
        f'at most {MAX_START} are accepted\n'))
    with pytest.raises(AssertionError, match='a host was built'):
        run(['verify', *suite, '--n', str(MAX_START + 1)])


@pytest.mark.parametrize('flag', ('--push',) + TWIST_LOOPS)
def test_a_framed_word_is_sized_before_it_is_read(nothing_built, monkeypatch,
                                                   capsys, flag):
    # with --w1 the word alone is sized first, as a least count: an
    # oversized word is refused without being parsed or swept
    def reached(*args):
        raise AssertionError('the word was read')

    monkeypatch.setattr(cli, 'long_w1', reached)
    argv = _loop_argv('eval', flag, MAX_START + 1) + ['--w1', '1']
    assert run(argv) == 2
    assert capsys.readouterr() == ('', (
        f'cocycle-lab: E_ARGS: the start diagram has at least {MAX_START + 1} '
        f'crossings; at most {MAX_START} are accepted\n'))
    with pytest.raises(AssertionError, match='the word was read'):
        run(_loop_argv('eval', flag, MAX_START) + ['--w1', '1'])


@pytest.mark.parametrize('argv', [
    ['invariant', 'v2', '--knot', 'trefoil', '--w1', str(10 ** 8)],
    ['cable', '--knot', 'trefoil', '--n', '2', '--w1', str(10 ** 7)],
])
def test_oversized_cable_and_invariant_are_refused(nothing_built, capsys, argv):
    # refused before framed_word writes the framing kinks; these commands
    # build no loop, and the message names none.  The start diagram is n * n
    # copies of the trefoil's 3 crossings and its |w1 - 1| framing kinks
    crossings = {'invariant': 10 ** 8 + 2, 'cable': 4 * (10 ** 7 + 2)}[argv[0]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == (
        f'cocycle-lab: E_ARGS: the start diagram has {crossings} crossings; '
        f'at most {MAX_START} are accepted\n')


@pytest.mark.parametrize('n', [3, 4, 5])
@pytest.mark.parametrize('flag', ['--rot', '--full-twist'])
def test_twist_loops_that_cannot_resplit_are_refused_before_transport(
        monkeypatch, capsys, flag, n):
    # a tangle that does not commute with the full twist as a word never
    # resplits with it; no move of the transport may be made
    def reached(*args):
        raise AssertionError('the transport was reached')

    for name in ('follow', 'ray_pass'):
        monkeypatch.setattr(loops._Transport, name, reached)
    tangle = ','.join(f's{g}' for g in range(n - 1, 0, -1))
    argv = ['eval', flag, '--tangle', tangle, '--knot', 'trefoil', '--n', str(n),
            '--w1', '1', '--a', '1']
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == ('cocycle-lab: E_PLAN: tangle does not absorb the '
                            'twist by resplitting\n')


@pytest.mark.parametrize('argv', [
    ['eval', '--push', '--tangle', 's1', '--knot', 'trefoil', '--n', '2', '--w1', '1'],
    ['eval', '--push', '--tangle', 's1,s2', '--knot', 'torus27', '--n', '3', '--w1', '2'],
    ['eval', '--rot', '--tangle', 's1', '--knot', 'trefoil', '--n', '2', '--w1', '1'],
    ['eval', '--scan', '--tangle', 's1', '--knot', 'fig8', '--n', '2', '--w1', '-1'],
    ['loops', '--full-twist', '--tangle', 's1', '--knot', 'trefoil', '--n', '2', '--w1', '1'],
    ['pairing', '--left', 'unknot', '--right', 'torus25', '--n', '2', '--w1', '2'],
])
def test_counted_crossings_are_the_start_diagrams(monkeypatch, capsys, argv):
    # with --w1 the word is first sized alone, as a least count, and then
    # with its framing kinks
    counted, starts = [], []
    monkeypatch.setattr(cli, '_check_start',
                        lambda crossings, least='': counted.append((crossings, least)))
    for name in ('push_loop', 'rotation_loop', 'scan_path',
                 'push_full_twist_loop', 'pairing'):
        def recorded(*args, planner=getattr(cli, name)):
            movie = planner(*args)
            starts.append(movie.start)
            return movie
        monkeypatch.setattr(cli, name, recorded)
    assert run(argv) == 0
    crossings = len(starts[0].gauss().signs)
    assert counted[-1] == (crossings, '')
    assert all(least == 'at least ' and c <= crossings for c, least in counted[:-1])


def test_the_word_is_validated_as_itself_then_in_the_start(monkeypatch, capsys):
    built = []
    validate = AnnularDiagram.validate
    monkeypatch.setattr(AnnularDiagram, 'validate',
                        lambda self: built.append(self) or validate(self))
    assert run(['eval', '--push', '--tangle', 's1', '--knot', 'trefoil',
                '--n', '2', '--w1', '1', '--a', '1']) == 0
    assert capsys.readouterr().out == '1\n'
    assert [d.n for d in built] == [1, 2]
    assert built[0].events == parse_events(cli.BUILTIN_KNOTS['trefoil'])


@pytest.mark.parametrize('argv, sizes', [
    (['eval', '--push', '--tangle', 's1', '--knot', 'fig8', '--n', '2',
      '--w1', '-1', '--a', '1'], [6, 29]),
    (['cable', '--knot', 'trefoil', '--n', '2', '--tangle', 's1', '--w1', '3'], [5, 33]),
])
def test_a_word_with_framing_kinks_is_validated_once(monkeypatch, capsys, argv, sizes):
    # the kinks are written from the framing the one read of the word found
    sizes_seen = []
    validate = AnnularDiagram.validate
    monkeypatch.setattr(AnnularDiagram, 'validate',
                        lambda self: sizes_seen.append(len(self.events)) or validate(self))
    assert run(argv) == 0
    assert sizes_seen == sizes


_BAD_POS = 'U 2 ; X+ 3 ; A 2'


@pytest.mark.parametrize('argv, message', [
    (['eval', '--push', '--tangle', 's1', '--knot', _BAD_POS, '--n', '2', '--a', '1'],
     'E_POS: crossing at 3 exceeds width 3'),
    (['eval', '--full-twist', '--tangle', 's1,s2', '--knot', _BAD_POS, '--n', '3',
      '--w1', '1'], 'E_POS: crossing at 3 exceeds width 3'),
    (['pairing', '--left', _BAD_POS, '--right', 'trefoil', '--n', '2'],
     'E_POS: crossing at 3 exceeds width 3'),
    (['cable', '--knot', _BAD_POS, '--n', '2'], 'E_POS: crossing at 3 exceeds width 3'),
    (['eval', '--scan', '--tangle', 's1', '--knot', 'U 1', '--n', '2', '--a', '1'],
     'E_WIDTH: cyclic word does not preserve width'),
    (['eval', '--push', '--tangle', 's1', '--knot', 'U 2 ; A 2 ; U 2 ; A 2',
      '--n', '2', '--a', '1'], 'E_COMPONENTS: diagram is not a single knot'),
])
def test_a_malformed_word_is_refused_as_the_user_wrote_it(capsys, argv, message):
    # the planners would quote their start diagram's positions; the
    # command line checks the word alone first
    assert run(argv) == 2
    assert capsys.readouterr() == ('', f'cocycle-lab: {message}\n')


@pytest.mark.parametrize('w1', [[], ['--w1', '1']], ids=['as-given', 'framed'])
def test_pairing_reads_the_right_word_before_the_left(capsys, w1):
    # the right word is read as it is framed, with or without --w1; the
    # left one when the pairing is planned
    assert run(['pairing', '--left', 'U 1', '--right', _BAD_POS, '--n', '2', *w1]) == 2
    assert capsys.readouterr() == ('', 'cocycle-lab: E_POS: crossing at 3 exceeds width 3\n')
