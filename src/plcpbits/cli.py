"""Command-line pipeline: index, build, decode, verify, period.

``index`` turns a raw byte file into the BWT and sampled-ISA artifacts
(the reference in-memory pipeline), ``build`` produces the succinct PLCP
vector from those artifacts with a selectable strategy, ``decode`` and
``verify`` read it back, ``period`` reports the primitive root of a
circular artifact.

Exit codes: 0 success, 1 usage or input problem, 2 verification
failure, 3 malformed artifact.
"""

import argparse
import json
import sys

from . import formats
from .circular import STRATEGIES, build_plcp, detect_period
from .emlayer import StreamFactory
from .errors import (AlphabetTooLarge, CircularPowerInput, EmptyInput,
                     FormatError, HeaderMismatch, PlcpError,
                     VerificationFailed)
from .reorder import reconstruct_text
from .textcore import (Text, brute_period, build_bwt, build_suffix_array,
                       invert_sa, kasai_lcp, permute_lcp, sample_isa)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_FORMAT = 3


def _warn(msg):
    print("warning: %s" % msg, file=sys.stderr)


def ingest(raw, circular):
    """Map raw bytes to the dense rank alphabet.

    Non-circular inputs get a rank-0 terminator: the existing last byte
    if it is unique and strictly minimal, otherwise an appended one.
    Circular powers are reduced to their primitive root with a notice, a
    one-symbol root is CircularPowerInput.  Returns (Text, remap dict).
    """
    if not raw:
        raise EmptyInput("input file is empty")
    distinct = sorted(set(raw))
    if circular:
        p = brute_period(raw)
        if p == 1:
            raise CircularPowerInput("circular input needs length above one")
        if p < len(raw):
            _warn("circular input is a power (exponent %d); indexing the "
                  "primitive root" % (len(raw) // p))
            raw = raw[:p]
    last = raw[-1]
    append = not circular and (raw.count(last) > 1 or last != distinct[0])
    if append and len(distinct) >= 256:
        raise AlphabetTooLarge("no free byte value for an appended terminator")
    ranks = {b: i + append for i, b in enumerate(distinct)}
    symbols = [ranks[b] for b in raw] + [0] * append
    remap = {"terminator_appended": append,
             "alphabet": {str(i): b for b, i in ranks.items()}}
    return Text(symbols, len(ranks) + append, circular=circular), remap


def cmd_index(args):
    with open(args.text, "rb") as fh:
        raw = fh.read()
    text, remap = ingest(raw, args.circular)
    sa = build_suffix_array(text)
    bwt = build_bwt(text, sa)
    sisa = sample_isa(invert_sa(sa), args.rate)
    prefix = args.output or args.text
    formats.write_bwt(prefix + ".bwt", bwt)
    formats.write_sisa(prefix + ".sisa", sisa, text.sigma,
                       circular=args.circular)
    with open(prefix + ".remap.json", "w") as fh:
        json.dump(remap, fh, indent=1)
    print("indexed %d symbols (sigma %d) -> %s.bwt, %s.sisa"
          % (len(text), text.sigma, prefix, prefix))
    return EXIT_OK


def _verify(text, plcp):
    """Compare every decoded value with the Kasai oracle on ``text``."""
    if len(text) != plcp.n:
        raise HeaderMismatch("text has %d symbols, artifact says %d"
                             % (len(text), plcp.n))
    sa = build_suffix_array(text)
    expected = permute_lcp(kasai_lcp(text, sa), invert_sa(sa))
    got = plcp.decode_all()
    for i in range(len(text)):
        if got[i] != expected[i]:
            raise VerificationFailed(i, expected[i], got[i])


def cmd_build(args):
    bwt = formats.read_bwt(args.bwt)
    sisa, sigma, circ = formats.read_sisa(args.sisa)
    formats.check_same_text(bwt.n, bwt.circular, sisa.n, circ,
                            "%s vs %s" % (args.bwt, args.sisa))
    with StreamFactory.tempdir(keep_temp=args.keep_temp) as factory:
        if args.keep_temp:
            print("temporary streams in %s" % factory.directory)
        plcp = build_plcp(bwt, sisa, args.strategy, cutoff=args.cutoff,
                          factory=factory)
        out = args.output or args.bwt.removesuffix(".bwt") + ".plcp"
        formats.write_plcp(out, plcp, bwt.sigma, circular=bwt.circular)
        if args.verify_after_build:
            symbols = reconstruct_text(bwt, sisa)
            _verify(Text(symbols, bwt.sigma, circular=bwt.circular), plcp)
            print("verified %d positions" % bwt.n)
    print("wrote %s (%d bits, shift %d)" % (out, 2 * plcp.n, plcp.shift))
    return EXIT_OK


def cmd_decode(args):
    plcp, _sigma, _circ = formats.read_plcp(args.plcp)
    values = (plcp.decode_all() if args.all else
              [plcp.decode(int(p)) for p in args.positions.split(",")])
    print(" ".join(map(str, values)))
    return EXIT_OK


def cmd_verify(args):
    plcp, _sigma, circ = formats.read_plcp(args.plcp)
    with open(args.text, "rb") as fh:
        raw = fh.read()
    text, _ = ingest(raw, circ)
    _verify(text, plcp)
    print("verify: OK (%d positions)" % plcp.n)
    return EXIT_OK


def cmd_period(args):
    bwt = formats.read_bwt(args.bwt)
    if not bwt.circular:
        print("error: period detection needs a circular artifact",
              file=sys.stderr)
        return EXIT_USAGE
    report = detect_period(bwt)
    print("period %d exponent %d" % (report.period, report.exponent))
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="plcpbits",
        description="Succinct PLCP bit vectors from BWT artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="raw text file -> .bwt + .sisa")
    p.add_argument("text")
    p.add_argument("--rate", type=int, default=4)
    p.add_argument("--circular", action="store_true")
    p.add_argument("--output", help="output prefix (default: input path)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("build", help=".bwt + .sisa -> .plcp")
    p.add_argument("bwt")
    p.add_argument("sisa")
    p.add_argument("--output", "-o")
    p.add_argument("--strategy", default="external", choices=STRATEGIES)
    p.add_argument("--cutoff", type=int, default=None,
                   help="hybrid round cutoff (default: stop once the rounds"
                   " set too few ranks, at most 3*ceil(log2 n) rounds)")
    p.add_argument("--keep-temp", action="store_true")
    p.add_argument("--verify-after-build", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decode", help="print PLCP values from a .plcp")
    p.add_argument("plcp")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--positions", help="comma-separated positions")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check a .plcp against its text")
    p.add_argument("text")
    p.add_argument("plcp")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("period", help="primitive root of a circular .bwt")
    p.add_argument("bwt")
    p.set_defaults(func=cmd_period)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (PlcpError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        if isinstance(exc, VerificationFailed):
            return EXIT_VERIFY
        if isinstance(exc, (FormatError, HeaderMismatch)):
            return EXIT_FORMAT
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
