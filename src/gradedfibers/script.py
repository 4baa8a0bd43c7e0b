"""Session-script language: tokenizer, parser, pretty printer.

One script drives one computation session: a single ring declaration,
named ideals, modules and fiber points over it, and a command list.
Statements are plain dicts so golden fixtures and the round-trip
property (pretty -> parse -> equal AST) reduce to dictionary equality.
Polynomials are kept as canonical strings; the ring layer parses them
when commands run.
"""

from __future__ import annotations

from .errors import ParseError, UndeclaredName

_KEYWORDS = ("ring", "ideal", "module", "fiber", "cmd")
_COMMANDS = ("localcoh", "loci", "specialize", "ratmap", "invariants", "harness")
_PUNCT = "();,[]:="
_OPS = "+-*^/"


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value, self.line, self.col)


def tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("end", None, line, col))
    return tokens


def _join_poly(tokens):
    """Canonical text of a polynomial token run.

    Binary + and - get single surrounding spaces; everything else is
    packed tight, so re-tokenizing the result gives the same run back.
    """
    out = []
    prev = None
    for tok in tokens:
        v = tok.value
        if v in ("+", "-"):
            if prev is None or prev in ("+", "-", "*", "/", "^", "(", ","):
                out.append(str(v))
            else:
                out.append(" %s " % v)
        elif v in ("*", "/", "^", "(", ")", ","):
            out.append(str(v))
        else:
            out.append(str(v))
        prev = v
    return "".join(out)


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.ring_name = None
        self.names = {}  # name -> "ideal" | "module" | "fiber"

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, value):
        tok = self.advance()
        if tok.value != value:
            self.fail("expected %r, found %r" % (value, tok.value), tok)
        return tok

    def expect_name(self, what="a name"):
        tok = self.advance()
        if tok.kind != "name":
            self.fail("expected %s, found %r" % (what, tok.value), tok)
        return tok

    def expect_int(self):
        sign = 1
        tok = self.peek()
        if tok.value == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "int":
            self.fail("expected an integer, found %r" % (tok.value,), tok)
        return sign * tok.value

    # -- polynomial capture --------------------------------------------------

    def capture_poly(self, stoppers):
        """Canonical string of tokens up to a depth-0 stopper (not consumed)."""
        run = []
        depth = 0
        start = self.peek()
        while True:
            tok = self.peek()
            if tok.kind == "end":
                self.fail("unterminated polynomial", tok)
            if depth == 0 and tok.value in stoppers:
                break
            if tok.value in ("(", "["):
                depth += 1
            elif tok.value in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            run.append(self.advance())
        if not run:
            self.fail("empty polynomial", start)
        return _join_poly(run)

    def poly_list(self, open_tok="(", close_tok=")"):
        self.expect(open_tok)
        out = []
        if self.peek().value == close_tok:
            self.advance()
            return out
        while True:
            out.append(self.capture_poly((",", close_tok, ";")))
            tok = self.advance()
            if tok.value == close_tok:
                return out
            if tok.value != ",":
                self.fail("expected ',' or %r in list" % close_tok, tok)

    # -- degrees and windows -------------------------------------------------

    def degree(self):
        if self.peek().value == "(":
            self.advance()
            a = self.expect_int()
            self.expect(",")
            b = self.expect_int()
            self.expect(")")
            return [a, b]
        return self.expect_int()

    def window(self):
        self.expect("[")
        lo = self.degree()
        self.expect(",")
        hi = self.degree()
        self.expect("]")
        return [lo, hi]

    # -- statements ------------------------------------------------------------

    def ring_decl(self, kw):
        if self.ring_name is not None:
            self.fail("only one ring per script", kw)
        name = self.expect_name("a ring name")
        self.expect("base")
        base = self.base_spec()
        self.expect("vars")
        xs = self.var_specs(stop=("vars2", "order", ";"))
        if not xs:
            self.fail("a ring needs at least one graded variable")
        ys = []
        if self.peek().value == "vars2":
            self.advance()
            ys = self.var_specs(stop=("order", ";"))
            if not ys:
                self.fail("vars2 needs at least one variable")
        order = None
        if self.peek().value == "order":
            self.advance()
            tok = self.expect_name("an order name")
            if tok.value not in ("grevlex", "lex", "block"):
                self.fail("unknown order %r" % tok.value, tok)
            order = tok.value
        self.expect(";")
        self.ring_name = name.value
        return {
            "kind": "ring",
            "name": name.value,
            "base": base,
            "vars": xs,
            "vars2": ys,
            "order": order,
        }

    def base_spec(self):
        tok = self.expect_name("a base kind")
        if tok.value == "QQ":
            return {"type": "QQ"}
        if tok.value == "GF":
            self.expect("(")
            p = self.expect_int()
            self.expect(")")
            return {"type": "GF", "p": p}
        if tok.value == "poly":
            return {"type": "poly", "params": self.poly_params()}
        if tok.value == "quotient":
            self.expect("(")
            inner = self.expect_name("poly(...)")
            if inner.value != "poly":
                self.fail("quotient bases start from poly(QQ, ...)", inner)
            params = self.poly_params()
            self.expect(",")
            kw = self.expect_name("ideal(...)")
            if kw.value != "ideal":
                self.fail("expected ideal(...) in quotient base", kw)
            rels = self.poly_list()
            comps = None
            if self.peek().value == ",":
                self.advance()
                kw = self.expect_name("components(...)")
                if kw.value != "components":
                    self.fail("expected components(...) in quotient base", kw)
                self.expect("(")
                comps = []
                while True:
                    comps.append(self.poly_list())
                    tok2 = self.advance()
                    if tok2.value == ")":
                        break
                    if tok2.value != ",":
                        self.fail("expected ',' or ')' after a component", tok2)
            self.expect(")")
            out = {"type": "quotient", "params": params, "relations": rels}
            if comps is not None:
                out["components"] = comps
            return out
        self.fail("unknown base kind %r" % tok.value, tok)

    def poly_params(self):
        self.expect("(")
        field = self.expect_name("QQ")
        if field.value != "QQ":
            self.fail("parameter rings are over QQ", field)
        params = []
        while self.peek().value == ",":
            self.advance()
            params.append(self.expect_name("a parameter name").value)
        self.expect(")")
        if not params:
            self.fail("poly(QQ, ...) needs at least one parameter")
        return params

    def var_specs(self, stop):
        out = []
        while (self.peek().kind == "name" and self.peek().value not in stop
               and self.peek().value not in _KEYWORDS):
            name = self.advance()
            self.expect(":")
            out.append({"name": name.value, "degree": self.degree()})
        return out

    def ideal_decl(self):
        name = self.expect_name("an ideal name")
        self.expect("=")
        gens = self.poly_list()
        self.expect(";")
        self.declare(name, "ideal")
        return {"kind": "ideal", "name": name.value, "gens": gens}

    def module_decl(self):
        name = self.expect_name("a module name")
        self.expect("=")
        self.expect("coker")
        open_tok = self.expect("[")
        rows = [[]]
        while True:
            rows[-1].append(self.capture_poly((",", ";", "]")))
            tok = self.advance()
            if tok.value == "]":
                break
            if tok.value == ";":
                rows.append([])
            elif tok.value != ",":
                self.fail("expected ',', ';' or ']' in matrix", tok)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail("matrix rows have unequal lengths", open_tok)
        shifts = None
        if self.peek().value == "shifts":
            self.advance()
            self.expect("(")
            shifts = [self.degree()]
            while self.peek().value == ",":
                self.advance()
                shifts.append(self.degree())
            close = self.expect(")")
            if len(shifts) != len(rows):
                self.fail("%d shifts for %d rows" % (len(shifts), len(rows)), close)
        self.expect(";")
        self.declare(name, "module")
        return {"kind": "module", "name": name.value, "rows": rows, "shifts": shifts}

    def fiber_decl(self):
        name = self.expect_name("a fiber name")
        self.expect("=")
        tok = self.expect_name("point or generic")
        if tok.value == "point":
            self.expect("(")
            assigns = []
            if self.peek().value != ")":
                while True:
                    z = self.expect_name("a parameter name")
                    self.expect("=")
                    assigns.append([z.value, self.capture_poly((",", ")"))])
                    tok2 = self.advance()
                    if tok2.value == ")":
                        break
                    if tok2.value != ",":
                        self.fail("expected ',' or ')' in point", tok2)
            else:
                self.advance()
            value = {"kind": "fiber", "name": name.value, "point": assigns}
        elif tok.value == "generic":
            on = []
            if self.peek().value == "(":
                on = self.poly_list()
            value = {"kind": "fiber", "name": name.value, "generic": on}
        else:
            self.fail("fibers are point(...) or generic", tok)
        self.expect(";")
        self.declare(name, "fiber")
        return value

    def command(self):
        op = self.expect_name("a command name")
        if op.value not in _COMMANDS:
            self.fail("unknown command %r" % op.value, op)
        out = {"kind": "cmd", "op": op.value}
        if op.value == "ratmap":
            out["forms"] = self.poly_list()
            out["fiber"] = self.opt_fiber_ref()
        elif op.value == "loci":
            out["target"] = self.target_ref()
            out["window"] = None
            if self.peek().value == "window":
                self.advance()
                out["window"] = self.window()
        elif op.value == "localcoh":
            out["target"] = self.target_ref()
            self.expect("window")
            out["window"] = self.window()
            out["fiber"] = self.opt_fiber_ref()
        elif op.value == "specialize":
            out["target"] = self.target_ref()
            self.expect("power")
            out["power"] = self.expect_int()
            out["window"] = None
            if self.peek().value == "window":
                self.advance()
                out["window"] = self.window()
            out["fiber"] = self.opt_fiber_ref()
        elif op.value == "invariants":
            out["target"] = self.target_ref()
            out["fiber"] = self.opt_fiber_ref()
        elif op.value == "harness":
            out["target"] = self.target_ref()
            self.expect("window")
            out["window"] = self.window()
            out["samples"] = None
            if self.peek().value == "samples":
                self.advance()
                out["samples"] = self.expect_int()
        self.expect(";")
        return out

    def target_ref(self):
        tok = self.expect_name("an ideal or module name")
        declared = self.names.get(tok.value)
        if declared not in ("ideal", "module"):
            raise UndeclaredName("%r is not a declared ideal or module" % tok.value,
                                 tok.line, tok.col)
        return tok.value

    def opt_fiber_ref(self):
        if self.peek().value != "at":
            return None
        self.advance()
        tok = self.expect_name("a fiber name")
        if self.names.get(tok.value) != "fiber":
            raise UndeclaredName("%r is not a declared fiber" % tok.value,
                                 tok.line, tok.col)
        return tok.value

    def declare(self, name_tok, what):
        if name_tok.value in self.names or name_tok.value == self.ring_name:
            self.fail("name %r already declared" % name_tok.value, name_tok)
        self.names[name_tok.value] = what

    # -- top level ----------------------------------------------------------

    def parse(self):
        declarations = []
        commands = []
        while True:
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind != "name" or tok.value not in _KEYWORDS:
                self.fail("expected a declaration or command, found %r" % (tok.value,),
                          tok)
            kw = self.advance()
            if kw.value == "ring":
                declarations.append(self.ring_decl(kw))
                continue
            if self.ring_name is None:
                raise UndeclaredName("no ring declared yet", kw.line, kw.col)
            if kw.value == "ideal":
                declarations.append(self.ideal_decl())
            elif kw.value == "module":
                declarations.append(self.module_decl())
            elif kw.value == "fiber":
                declarations.append(self.fiber_decl())
            else:
                commands.append(self.command())
        return SessionScript(declarations, commands)


class SessionScript:
    """Parsed declarations plus the command list, all plain data."""

    __slots__ = ("declarations", "commands")

    def __init__(self, declarations, commands):
        self.declarations = list(declarations)
        self.commands = list(commands)

    def __eq__(self, other):
        return (isinstance(other, SessionScript)
                and self.declarations == other.declarations
                and self.commands == other.commands)

    @property
    def ring_decl(self):
        for d in self.declarations:
            if d["kind"] == "ring":
                return d
        return None

    def pretty(self):
        return "\n".join([_pretty_statement(d) for d in self.declarations]
                         + [_pretty_statement(c) for c in self.commands]) + "\n"


def parse(text):
    """Script text to SessionScript; ParseError/UndeclaredName carry positions."""
    return _Parser(text).parse()


# -- pretty printing ---------------------------------------------------------


def _fmt_degree(d):
    if isinstance(d, list):
        return "(%d, %d)" % (d[0], d[1])
    return str(d)


def _fmt_window(w):
    return "[%s, %s]" % (_fmt_degree(w[0]), _fmt_degree(w[1]))


def _fmt_base(base):
    if base["type"] == "QQ":
        return "QQ"
    if base["type"] == "GF":
        return "GF(%d)" % base["p"]
    if base["type"] == "poly":
        return "poly(QQ, %s)" % ", ".join(base["params"])
    parts = ["poly(QQ, %s)" % ", ".join(base["params"]),
             "ideal(%s)" % ", ".join(base["relations"])]
    if base.get("components") is not None:
        comps = ", ".join("(%s)" % ", ".join(c) for c in base["components"])
        parts.append("components(%s)" % comps)
    return "quotient(%s)" % ", ".join(parts)


def _pretty_statement(st):
    kind = st["kind"]
    if kind == "ring":
        bits = ["ring", st["name"], "base", _fmt_base(st["base"]), "vars"]
        bits.extend("%s:%s" % (v["name"], _fmt_degree(v["degree"])) for v in st["vars"])
        if st["vars2"]:
            bits.append("vars2")
            bits.extend("%s:%s" % (v["name"], _fmt_degree(v["degree"]))
                        for v in st["vars2"])
        if st["order"]:
            bits.extend(["order", st["order"]])
        return " ".join(bits) + ";"
    if kind == "ideal":
        return "ideal %s = (%s);" % (st["name"], ", ".join(st["gens"]))
    if kind == "module":
        rows = "; ".join(", ".join(r) for r in st["rows"])
        text = "module %s = coker [%s]" % (st["name"], rows)
        if st["shifts"] is not None:
            text += " shifts (%s)" % ", ".join(_fmt_degree(s) for s in st["shifts"])
        return text + ";"
    if kind == "fiber":
        if "point" in st:
            assigns = ", ".join("%s=%s" % (z, v) for z, v in st["point"])
            return "fiber %s = point(%s);" % (st["name"], assigns)
        if st["generic"]:
            return "fiber %s = generic(%s);" % (st["name"], ", ".join(st["generic"]))
        return "fiber %s = generic;" % st["name"]
    op = st["op"]
    bits = ["cmd", op]
    if op == "ratmap":
        bits.append("(%s)" % ", ".join(st["forms"]))
    else:
        bits.append(st["target"])
    if op == "localcoh":
        bits.extend(["window", _fmt_window(st["window"])])
    elif op == "loci":
        if st["window"] is not None:
            bits.extend(["window", _fmt_window(st["window"])])
    elif op == "specialize":
        bits.extend(["power", str(st["power"])])
        if st["window"] is not None:
            bits.extend(["window", _fmt_window(st["window"])])
    elif op == "harness":
        bits.extend(["window", _fmt_window(st["window"])])
        if st["samples"] is not None:
            bits.extend(["samples", str(st["samples"])])
    if st.get("fiber"):
        bits.extend(["at", st["fiber"]])
    return " ".join(bits) + ";"
