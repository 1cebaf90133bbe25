"""Command line front end.

Commands mirror the library layers: `cable` builds closed cable
diagrams, `loops` emits movies, `eval` and `pairing` run the cocycle,
`verify` drives the property suites, `oracle`/`invariant` expose the
low-level counts.  All output is plain text or JSON with stable key
order and no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cabling, oracle, verify
from .annular import DiagramError, format_morse
from .cabling import braid_events, closed_cable, framed_word, long_events, long_w1
from .cocycle import (evaluate, evaluate_all, interpolation_polynomial,
                      polynomial_text)
from .discriminant import (GLOBAL_TYPES, HostError, meridian_loop, quad_host,
                           tangency_host, tangency_loop)
from .gauss import c2k, v2, w1
from .loops import (PlannerError, pairing, push_full_twist_loop, push_loop,
                    rotation_loop, scan_path)
from .moves import MoveError

BUILTIN_KNOTS = {
    'unknot': cabling.LONG_UNKNOT,
    'trefoil': cabling.LONG_TREFOIL,
    'mirror-trefoil': cabling.LONG_MIRROR_TREFOIL,
    'fig8': cabling.LONG_FIG8,
    'torus25': cabling.LONG_TORUS25,
    'torus27': cabling.LONG_TORUS27,
}


# The most crossings a start diagram of `loops`, `eval` or `pairing` may
# have.  A movie keeps its start, its moves and its final state, so its
# memory grows with its moves.  Its time grows with the moves times the
# word length: each move copies the state it edits, and each counted
# triple point move scans the whole diagram.  Peak memory and time of
# `eval ... --a 1` (Python 3.11, 2-core x86-64, best of 3): push torus27
# w1=2 n=8 (519 crossings) 18 MB, 0.15 s; push trefoil w1=1 n=18 (989)
# 22 MB, 0.35 s; scan and rotation of trefoil w1=1 n=15 (899; 264,821
# moves for the rotation) 60 MB, 2.6 s.  Past the bound, push trefoil n=2
# (library call) takes 1.6 s and 21 MB at w1=500 (2,009 crossings) and
# 2.5 s and 24 MB at w1=800 (3,209), most of it in the counted rows.
MAX_START_CROSSINGS = 1000


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argparse's usage errors as coded UsageErrors instead of
    exiting; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"E_ARGS: {message}")


def _knot_text(spec):
    """Builtin name, path to a .morse file, or literal Morse text."""
    if spec in BUILTIN_KNOTS:
        return BUILTIN_KNOTS[spec]
    base = os.path.splitext(os.path.basename(spec))[0]
    if base in BUILTIN_KNOTS and spec.endswith('.morse') and not os.path.exists(spec):
        return BUILTIN_KNOTS[base]
    if os.path.exists(spec):
        try:
            with open(spec, encoding='utf-8') as f:
                return f.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"E_IO: cannot read {spec}: {exc}") from None
    if any(tok in spec for tok in ('U ', 'A ', 'X+', 'X-')) or spec == '':
        return spec
    raise UsageError(f"E_KNOT: unknown knot {spec!r}: not a builtin, file, "
                     f"or Morse text")


def _tangle_word(text):
    """Braid word: tokens like s1, s2' (inverse), or signed integers."""
    word = []
    for tok in text.replace(',', ' ').split():
        inv = tok.endswith("'")
        try:
            g = int(tok.removesuffix("'").removeprefix('s'))
        except ValueError:
            raise UsageError(f"E_TANGLE: bad braid generator {tok!r}") from None
        word.append(-abs(g) if inv or g < 0 else g)
    return word


def _check_start(crossings, least=''):
    if crossings > MAX_START_CROSSINGS:
        raise UsageError(f"E_ARGS: the start diagram has {least}{crossings} "
                         f"crossings; at most {MAX_START_CROSSINGS} are accepted")


def _framed(spec, target_w1, start):
    """The knot's Morse text, framed to target_w1 when one is given.

    start=(n, extra) sizes the start diagram [extra crossings][n-cable of
    the framed knot], n * n crossings per 'X' of the text, against
    MAX_START_CROSSINGS: before the word is read (a least count if kinks
    may follow) and before the framing kinks are written.  long_w1 reads
    the word once: its errors name the user's events, and the kinks start
    from its framing.  The planners check the word again only in their start.
    """
    text = _knot_text(spec)
    n, extra = start
    crossings = extra + n * n * text.count('X')
    _check_start(crossings, '' if target_w1 is None else 'at least ')
    w1_now = long_w1(text)
    if target_w1 is None:
        return text
    _check_start(crossings + n * n * abs(w1_now - target_w1))
    return framed_word(text, w1_now, target_w1)


def _emit(payload, out_path):
    blob = json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, 'w') as f:
                f.write(blob)
        except OSError as exc:
            raise UsageError(f"E_IO: cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(blob)


def _caps_from_env():
    raw = os.environ.get('COCYCLE_LAB_CAPS', '')
    caps = {}
    for part in raw.split(','):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition('=')
        key = key.strip()
        if key != 'crossings':
            raise UsageError(f"E_CAPS: COCYCLE_LAB_CAPS key {key!r} is unknown; "
                             f"the only cap is 'crossings'")
        try:
            caps[key] = int(val)
        except ValueError:
            raise UsageError(f"E_CAPS: COCYCLE_LAB_CAPS entry {part!r} "
                             f"needs an integer value") from None
        if caps[key] < 0:
            raise UsageError(f"E_CAPS: COCYCLE_LAB_CAPS entry {part!r} "
                             f"needs a value >= 0")
    return caps


def _diagram_payload(d):
    return {
        'n': d.n,
        'w0': d.w0,
        'morse': format_morse(d),
    }


def _movie_payload(movie):
    return {
        'n': movie.start.n,
        'start': _diagram_payload(movie.start),
        'moves': [type(mv).__name__ for mv in movie.moves],
        'closed': movie.is_closed(),
    }


def _explain_table(rep):
    return [
        {
            'move': r.index,
            'type': r.triple.global_type,
            'marks': dict(r.triple.marks),
            'sign': r.triple.sign,
            'w2_p': r.w2p,
            'l_p': r.lp,
            'w2_hm': r.w2hm,
            'contribution': r.contrib,
        }
        for r in rep.contributing()
    ]


def _report_payload(movie, explain=False, at=None):
    """Values at every a and their polynomial, or the value at a = at alone."""
    # report rows are built only for the explain table
    if at is None:
        reports = evaluate_all(movie, report=explain)
    else:
        reports = {at: evaluate(movie, at, report=explain)}
    values = {a: rep.value for a, rep in reports.items()} if explain else reports
    payload = {
        'n': movie.start.n,
        'values': {str(a): values[a] for a in sorted(values)},
    }
    if at is None:
        coeffs = interpolation_polynomial(values)
        payload['polynomial'] = [str(c) for c in coeffs]
        payload['polynomial_text'] = polynomial_text(coeffs)
    if explain:
        payload['moves'] = {str(a): _explain_table(reports[a])
                            for a in sorted(reports)}
    return payload


def _loop_movie(args):
    if args.knot is None:
        raise UsageError("--knot is required for push/rot/scan loops")
    tangle = _tangle_word(args.tangle or '')
    # all but the push loop start with the full twist after the cable
    twist = 0 if args.loop == 'push_loop' else args.n * (args.n - 1)
    knot = _framed(args.knot, args.w1, start=(args.n, len(tangle) + twist))
    # looked up by name when called, so a planner patched on the module is used
    return globals()[args.loop](tangle, knot, args.n)


def _add_loop_flags(p):
    """Transport loop flags; returns the group that takes exactly one loop kind."""
    kind = p.add_mutually_exclusive_group(required=True)
    for flag, planner in (('--push', 'push_loop'), ('--rot', 'rotation_loop'),
                          ('--scan', 'scan_path'),
                          ('--full-twist', 'push_full_twist_loop')):
        kind.add_argument(flag, dest='loop', action='store_const', const=planner)
    p.add_argument('--tangle', default='')
    p.add_argument('--knot', default=None)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--w1', type=int, default=None)
    return kind


def _closed_cable(args):
    tangle = _tangle_word(args.tangle or '')
    return closed_cable(braid_events(tangle), long_events(
        _framed(args.knot, args.w1, start=(args.n, len(tangle)))), args.n)


def _cmd_cable(args):
    _emit(_diagram_payload(_closed_cable(args)), args.out)
    return 0


def _cmd_loops(args):
    if args.meridian is not None or args.cube:
        # a class-n diagram has >= n - 1 crossings; checked before the O(n^2) host build
        _check_start(args.n - 1, 'at least ')
    if args.meridian is not None:
        windings = tuple(args.windings or (0, 0, 0, args.n))
        host, slot = quad_host(GLOBAL_TYPES[args.meridian], windings, args.n)
        _check_start(len(host.gauss().signs))
        movie = meridian_loop(host, slot)
    elif args.cube:
        windings = tuple(args.windings or (0, 0, args.n))
        host, slot = tangency_host(tuple(args.order), windings,
                                   tuple(args.flags), args.n)
        _check_start(len(host.gauss().signs))
        movie = tangency_loop(host, slot, args.flags[0])
    else:
        movie = _loop_movie(args)
    _emit(_movie_payload(movie), args.out)
    return 0


def _cmd_eval(args):
    movie = _loop_movie(args)
    if args.a is None or args.explain:
        _emit(_report_payload(movie, explain=args.explain, at=args.a), args.out)
    else:
        _emit(evaluate(movie, args.a), args.out)
    return 0


def _cmd_pairing(args):
    left = _knot_text(args.left)
    # the mover is the permutation braid sigma_1 ... sigma_{n-1}
    right = _framed(args.right, args.w1, start=(args.n, args.n - 1))
    movie = pairing(left, right, args.n)
    _emit(_report_payload(movie, explain=args.explain), args.out)
    return 0


def _cmd_verify(args):
    if args.suite and args.n is not None and args.suite not in verify.SUITES_WITH_N:
        raise UsageError(f"E_ARGS: suite {args.suite!r} takes no --n; "
                         f"only {' and '.join(verify.SUITES_WITH_N)} do")
    names = [args.suite] if args.suite else list(verify.SUITES)
    params = {}
    if args.n is not None:
        # as for `loops --meridian/--cube`, checked before any host is built
        _check_start(args.n - 1, 'at least ')
        params['ns'] = (args.n,)
    ok = True
    reports = []
    for name in names:
        rep = verify.run_suite(name, params=params or None)
        ok = ok and rep.passed
        reports.append(rep)
        print(rep.summary())
    if args.report:
        payload = {
            'passed': ok,
            'suites': [
                {
                    'name': r.name,
                    'passed': r.passed,
                    'checks': r.checks,
                    'failures': [
                        {'case': f.case, 'detail': f.detail}
                        for f in r.failures
                    ],
                }
                for r in reports
            ],
        }
        _emit(payload, args.report)
    return 0 if ok else 1


def _cmd_oracle(args):
    d = closed_cable([], long_events(_knot_text(args.knot)), 1)
    poly = oracle.conway(d.gauss())
    _emit({'conway': {str(k): v for k, v in sorted(poly.items())},
           'text': oracle.poly_text(poly)}, args.out)
    return 0


def _cmd_invariant(args):
    g = _closed_cable(args).gauss()
    if args.what == 'v2':
        print(v2(g))
    elif args.what == 'w1':
        print(w1(g))
    elif args.what == 'c2k':
        print(c2k(g, args.k))
    return 0


def build_parser():
    ap = _ArgumentParser(
        prog='cocycle-lab',
        description='one-cocycle computations for cabled knots in the '
                    'solid torus')
    sub = ap.add_subparsers(dest='command', required=True)

    p = sub.add_parser('cable', help='build a closed cable diagram')
    p.add_argument('--tangle', default='')
    p.add_argument('--knot', required=True)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--w1', type=int, default=None)
    p.add_argument('--out', default=None)
    p.set_defaults(func=_cmd_cable)

    p = sub.add_parser('loops', help='emit a loop movie')
    kind = _add_loop_flags(p)
    kind.add_argument('--meridian', type=int, choices=sorted(GLOBAL_TYPES),
                      default=None, help='global type of a quadruple point host')
    kind.add_argument('--cube', action='store_true')
    p.add_argument('--order', type=int, nargs=3, default=(1, 2, 3))
    p.add_argument('--windings', type=int, nargs='+', default=None)
    p.add_argument('--flags', nargs=3, default=('+', '+', '+'))
    p.add_argument('--out', default=None)
    p.set_defaults(func=_cmd_loops)

    p = sub.add_parser('eval', help='evaluate the cocycle on a loop')
    _add_loop_flags(p)
    p.add_argument('--a', type=int, default=None)
    p.add_argument('--explain', action='store_true')
    p.add_argument('--out', default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser('pairing', help='push a braided cable of one knot '
                                       'through the cable of another')
    p.add_argument('--left', required=True)
    p.add_argument('--right', required=True)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--w1', type=int, default=None)
    p.add_argument('--explain', action='store_true')
    p.add_argument('--out', default=None)
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser('verify', help='run property suites')
    p.add_argument('--suite', choices=sorted(verify.SUITES), default=None)
    p.add_argument('--n', type=int, default=None,
                   help='class n >= 2 of the loops; used by the '
                        f"{' and '.join(verify.SUITES_WITH_N)} suites only")
    p.add_argument('--report', default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser('oracle', help='independent skein computations')
    p.add_argument('what', choices=['conway'])
    p.add_argument('--knot', required=True)
    p.add_argument('--out', default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser('invariant', help='Gauss diagram counts')
    p.add_argument('what', choices=['v2', 'c2k', 'w1'])
    p.add_argument('--knot', required=True)
    p.add_argument('--tangle', default='')
    p.add_argument('--n', type=int, default=1)
    p.add_argument('--w1', type=int, default=None)
    p.add_argument('--k', type=int, default=1)
    p.set_defaults(func=_cmd_invariant)

    return ap


def _check_n(args):
    """The class n is at least 1, and the cocycle's parameter range
    0 < a < n needs n >= 2."""
    least = 2 if args.command in ('eval', 'pairing', 'verify') else 1
    if getattr(args, 'n', None) is not None and args.n < least:
        raise UsageError(f"E_ARGS: {args.command} needs --n >= {least}, "
                         f"got {args.n}")


# codes for the errors whose messages carry none; any other is E_ARGS
_ERROR_CODES = {HostError: 'E_HOST', PlannerError: 'E_PLAN',
                oracle.OracleCapError: 'E_CAP'}


def run(argv=None):
    cap = oracle.CROSSING_CAP   # the caps hold for this call only
    try:
        args = build_parser().parse_args(argv)
        oracle.CROSSING_CAP = _caps_from_env().get('crossings', cap)
        _check_n(args)
        return args.func(args)
    except (UsageError, DiagramError, MoveError, HostError, PlannerError,
            oracle.OracleCapError, ValueError) as exc:
        msg = str(exc)
        if not msg.startswith('E_'):
            msg = f"{_ERROR_CODES.get(type(exc), 'E_ARGS')}: {msg}"
        print(f"cocycle-lab: {msg}", file=sys.stderr)
        return 2
    finally:
        oracle.CROSSING_CAP = cap


def main():
    sys.exit(run())


if __name__ == '__main__':
    main()
