"""Command-line front end.

Thin adapters over the library.  ``main`` is the only code that reads the
inputs and writes the output: it parses the arguments, loads and checks
the surface and parameter files the subcommand declares, and prints (or
writes to ``--out``) the JSON document the handler returns.  A handler
``cmd_x(args, surf, params)`` only calls the library.  Exit codes: 0
success, 2 schema violation, 3 domain violation, 4 numeric degeneracy.  A
usage error (unknown command, bad choice, non-integer count) is a schema
violation.

A cold process pays for every module it imports, so each handler imports
the modules only it uses: ``builder`` loads only in the commands that
build matrices, so ``act``, ``move``, ``fn``, ``validate`` and a command
whose input files fail their checks compile none of it.  No command loads
numpy: ``sample`` draws its points from the stdlib ``random.Random(seed)``.
Each call builds only the sub-parser of the command named first, or every
sub-parser when no command is named, so usage errors and help read the
same either way.
"""

import argparse
import cmath
import json
import math
import sys

from . import coordinates, surface
from .coordinates import EdgeParams
from .projective import DegenerateInputError, SingularMapError, _at

EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


class SchemaError(ValueError):
    pass


class DomainError(ValueError):
    pass


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m):
    return [[_c(m.a), _c(m.b)], [_c(m.c), _c(m.d)]]


def _tolerance(text):
    """A --tol value: NaN, an infinity or a negative would switch off the domain check."""
    try:
        if 0 <= float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a finite non-negative number, got %r" % text)


def _load_surface(path):
    if path is None:
        raise SchemaError("--surface is required for this command")
    try:
        surf = surface.load(path)
        problems = surface.validate(surf)
    except (OSError, KeyError, TypeError, ValueError) as ex:
        raise SchemaError("cannot read surface file %s: %s" % (path, ex))
    if problems:
        raise SchemaError("invalid surface: %s" % "; ".join(problems))
    return surf


def _load_params(path, surf, tol):
    if path is None:
        raise SchemaError("--params is required for this command")
    try:
        params = coordinates.load_params(path)
    except (OSError, KeyError, TypeError, ValueError) as ex:
        raise SchemaError("cannot read parameter file %s: %s" % (path, ex))
    try:
        # build checks at DOMAIN_TOL: a smaller tol would pass a point it refuses
        ok = coordinates.in_domain(params, surf, tol=max(tol, coordinates.DOMAIN_TOL))
    except KeyError as ex:
        raise SchemaError("parameter keys do not match the surface: %s" % ex.args[0])
    if not ok:
        raise DomainError("parameters violate the admissibility inequalities")
    return params


def _emit(doc, out):
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as ex:
        # strict JSON has no NaN or infinity: a non-finite result is a
        # numeric degeneracy (exit 4), never a bare NaN token on stdout
        raise FloatingPointError("result is not finite: %s" % ex)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise SchemaError("cannot write %s: %s" % (out, ex))
    else:
        sys.stdout.write(text)


def _word_list(pres):
    """Generators, pairwise products, and relation prefixes."""
    gens = pres.generators()
    words = [((g,), [(g, 1)]) for g in gens]
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            words.append(((g, h), [(g, 1), (h, 1)]))
    rel = pres.one_relator()
    for n in range(2, len(rel)):
        label = tuple("%s^%d" % gh for gh in rel[:n])
        words.append((label, list(rel[:n])))
    return words


def _generators_doc(surf, params):
    """The generator matrices of the representation built from ``params`` on
    ``surf``, and its relation residuals."""
    from . import builder

    rep = builder.build(surf, params)
    return {
        "generators": {name: _matrix(rep.image(name)) for name in sorted(rep.images)},
        "relation_residuals": {k: float(v) for k, v in builder.verify_relations(rep).items()},
    }


def cmd_validate(args, surf, params):
    doc = {"surface": "ok", "genus": surf.genus, "boundary": surf.boundary}
    return doc if params is None else dict(doc, params="ok")


def cmd_generators(args, surf, params):
    return _generators_doc(surf, params)


def cmd_traces(args, surf, params):
    from . import builder

    rep = builder.build(surf, params)
    return {"traces": {"*".join(str(x) for x in label): _c(rep.evaluate(word).trace())
                       for label, word in _word_list(rep.presentation)}}


def cmd_recover(args, surf, params):
    from . import builder

    rep = builder.build(surf, params)
    recovered = builder.recover_coordinates(rep, tol=args.tol)
    err = 0.0
    for eid in params.eigen:
        cand = (abs(recovered.eigen[eid] - params.eigen[eid]),
                abs(1 / recovered.eigen[eid] - params.eigen[eid]))
        err = max(err, min(cand))
    return {"recovered": coordinates.params_to_json(recovered),
            "max_eigen_error_up_to_inversion": err}


def cmd_act(args, surf, params):
    from . import symmetry

    if args.flip is None and args.epsilon is None:
        raise SchemaError("act needs --flip and/or --epsilon")
    try:
        # a given --epsilon lists one edge id or more, with no empty item
        ids = [] if args.epsilon is None else [int(x) for x in args.epsilon.split(",")]
    except ValueError as ex:
        raise SchemaError("--epsilon must be a comma-separated edge list: %s" % ex)
    for eid in ([] if args.flip is None else [args.flip]) + ids:
        if eid not in surf.graph.edges:
            raise DomainError("edge %r does not exist in the surface" % eid)
    if args.flip is not None:
        params = symmetry.flip_eigenvalue(params, surf, args.flip)
    if ids:
        eps = {eid: (-1 if eid in ids else 1) for eid in surf.graph.edges}
        try:
            params = symmetry.act_epsilon(params, eps, surf)
        except ValueError:
            raise DomainError("sign vector %s is not admissible" % sorted(ids)) from None
    return coordinates.params_to_json(params)


def cmd_move(args, surf, params):
    from . import moves

    if args.kind is None or args.target is None:
        raise SchemaError("move needs --kind and --target")
    if args.branch is not None and args.kind != "elem":
        raise SchemaError("--branch applies only to --kind elem")
    branch = None
    if args.branch is not None:
        try:
            re, im = (float(x) for x in args.branch.split(","))
            branch = complex(re, im)
        except ValueError as ex:
            raise SchemaError("--branch must be re,im: %s" % ex)
        if not cmath.isfinite(branch):
            raise SchemaError("--branch must be finite, got %r" % args.branch)
    try:
        target = int(args.target)
    except ValueError:
        raise SchemaError("--target must be an edge or vertex id")
    if target not in (surf.graph.vertices if args.kind == "vertex" else surf.graph.edges):
        raise DomainError("target %r does not exist in the surface" % target)
    try:
        new_surf, new_params = moves.apply_move(surf, params, moves.Move(args.kind, target, branch))
    except (DegenerateInputError, SingularMapError):
        raise
    except ValueError as ex:
        # a move that is not defined on this target, e.g. a Dehn twist
        # along a boundary edge
        raise DomainError(str(ex)) from None
    return {"surface": surface.to_json(new_surf),
            "params": coordinates.params_to_json(new_params)}


def cmd_fn(args, surf, params):
    from . import fuchsian

    fn = fuchsian.to_fenchel_nielsen(params, surf, require_domain=False)
    back = fuchsian.from_fenchel_nielsen(fn, surf)
    err = max(
        max(abs(back.eigen[k] - params.eigen[k]) for k in params.eigen),
        max((abs(back.twist[k] - params.twist[k]) for k in params.twist), default=0.0),
    )

    def emit_val(v):
        v = complex(v)
        return v.real if abs(v.imag) < 1e-12 else [v.real, v.imag]

    return {"lengths": {str(k): emit_val(v) for k, v in sorted(fn.lengths.items())},
            "twists": {str(k): emit_val(v) for k, v in sorted(fn.fn_twists.items())},
            "meta": {"normalization": fn.meta["normalization"],
                     "on_locus": fn.meta["on_locus"]},
            "roundtrip_error": err}


def cmd_shearbend(args, surf, params):
    from . import builder, shearbend

    g = surf.graph
    loops = [e for e in g.interior_edges() if g.edges[e].tail == g.edges[e].head]
    if surf.genus != 1 or surf.boundary != 1 or len(loops) != 1:
        raise DomainError("shearbend conversion is defined for the one-holed torus")
    loop = loops[0]
    bdry = [e for e in g.edges if g.is_boundary(e)][0]
    e1, e2, t1 = params.eigen[loop], params.eigen[bdry], params.twist[loop]
    try:
        a, b, c, z1, z2 = shearbend.one_holed_to_shear(e1, e2, t1)
        ma_inv, mb = shearbend.shear_rep_one_holed(a, b, c)
    except (DegenerateInputError, SingularMapError, ArithmeticError) as ex:
        raise _at("edge %r" % (loop,), ex)
    rep = builder.build(surf, params)
    report = {}
    for name, m in (("a1", ma_inv.inverse()), ("b1", mb)):
        got = m.trace() ** 2 / m.det()
        ref = rep.image(name).trace() ** 2
        report[name] = {"shear_tr2": _c(got), "builder_tr2": _c(ref),
                        "difference": abs(complex(got) - complex(ref))}
    return {"a": _c(a), "b": _c(b), "c": _c(c), "z1": _c(z1), "z2": _c(z2),
            "trace_check": report}


def sample_params(surf, rng, fuchsian_mode):
    edges, interior = sorted(surf.graph.edges), surf.graph.interior_edges()
    if fuchsian_mode:
        eigen = {eid: complex(-math.exp(rng.uniform(0.1, 2))) for eid in edges}
        return EdgeParams(eigen, {eid: complex(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
                                  for eid in interior})
    for _ in range(1000):
        eigen = {}
        for eid in edges:
            r = math.exp(rng.uniform(math.log(1.2), math.log(5.0)))
            eigen[eid] = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if coordinates.in_domain(EdgeParams(eigen, {eid: 1.0 + 0j for eid in interior}), surf):
            break
    else:
        raise DegenerateInputError("rejection sampling failed to hit the domain", factor="in_domain")
    twist = {}
    for eid in interior:
        r = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        twist[eid] = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return EdgeParams(eigen, twist)


def cmd_sample(args, surf, params):
    import random

    from . import builder

    for flag, value in (("--n", args.n), ("--seed", args.seed)):
        if value < 0:
            raise SchemaError("%s must not be negative, got %d" % (flag, value))
    rng = random.Random(args.seed)
    points = []
    worst = 0.0
    for k in range(args.n):
        try:
            params = sample_params(surf, rng, args.fuchsian)
            res = max(builder.verify_relations(builder.build(surf, params)).values())
        except (DegenerateInputError, SingularMapError, ArithmeticError) as ex:
            raise _at("point %d" % k, ex)
        worst = max(worst, res)
        points.append({"params": coordinates.params_to_json(params),
                       "relation_residual": float(res)})
    return {"seed": args.seed, "n": args.n, "worst_residual": float(worst), "points": points}


EXAMPLES = {
    "four-holed": surface.four_holed_sphere,
    "one-holed": surface.one_holed_torus,
    "genus2": surface.genus_two,
}


def cmd_example(args, surf, params):
    surf = EXAMPLES[args.which]()
    g = surf.graph
    eigen = {eid: complex(-2.0 - 0.5 * i) for i, eid in enumerate(sorted(g.edges))}
    twist = {eid: complex(1.0 + 0.25 * i) for i, eid in enumerate(sorted(g.interior_edges()))}
    params = EdgeParams(eigen, twist)
    return dict(_generators_doc(surf, params),
                surface=surface.to_json(surf), params=coordinates.params_to_json(params))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise SchemaError, so main
    reports them as JSON on stdout with exit code 2."""

    def error(self, message):
        raise SchemaError(message)


#: each command's handler and the keywords of make_parser's ``add``: which
#: of --surface and --params it takes, and its own flags
_COMMANDS = {
    "validate": (cmd_validate, {"params": "optional"}),
    "generators": (cmd_generators, {}),
    "traces": (cmd_traces, {}),
    "recover": (cmd_recover, {}),
    "act": (cmd_act, {"--flip": {"type": int}, "--epsilon": {}}),
    "move": (cmd_move, {"--kind": {"choices": ["reverse", "twist-l", "twist-r", "vertex", "elem"]},
                        "--target": {}, "--branch": {}}),
    "fn": (cmd_fn, {}),
    "shearbend": (cmd_shearbend, {}),
    "sample": (cmd_sample, {"params": None, "--n": {"type": int, "default": 10},
                            "--seed": {"type": int, "default": 0},
                            "--fuchsian": {"action": "store_true"}}),
    "example": (cmd_example, {"with_surface": False, "params": None,
                              "which": {"choices": sorted(EXAMPLES)}}),
}


def make_parser(command=None):
    """The parser of every command, or of the one command named."""
    p = _Parser(
        prog="pantsrep",
        description="Matrix representations of surface groups from "
                    "eigenvalue-twist coordinates on pants decompositions.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, with_surface=True, params="required", **flags):
        # only the flags the handler reads; main loads the files they name
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn, params_required=params == "required")
        if with_surface:
            sp.add_argument("--surface")
        if params:
            sp.add_argument("--params")
            sp.add_argument("--tol", type=_tolerance, default=1e-9)
        sp.add_argument("--out")
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)

    for name, (fn, kw) in _COMMANDS.items():
        if command in (None, name):
            add(name, fn, **kw)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a sub-parser costs milliseconds to build in a cold process, so build
        # the named command's alone; with none named, the usage error or help
        # lists them all
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = make_parser(command).parse_args(argv)
        surf = params = None
        if "surface" in args:
            surf = _load_surface(args.surface)
        if "params" in args and (args.params_required or args.params is not None):
            params = _load_params(args.params, surf, args.tol)
        _emit(args.fn(args, surf, params), args.out)
        return 0
    except SchemaError as ex:
        _emit({"error": "schema", "detail": str(ex)}, None)
        return EXIT_SCHEMA
    except DomainError as ex:
        _emit({"error": "domain", "detail": str(ex)}, None)
        return EXIT_DOMAIN
    except (DegenerateInputError, SingularMapError, ArithmeticError) as ex:
        doc = {"error": "numeric", "detail": str(ex)}
        factor = getattr(ex, "factor", None)
        if factor:
            doc["factor"] = factor
        _emit(doc, None)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
