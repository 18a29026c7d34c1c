#!/usr/bin/env python3
"""fractal_lint: hot-path allocation-discipline checker (DESIGN.md §9).

Walks the call graph from every FRACTAL_HOT function (src/util/
hot_annotations.h) and reports, for everything reachable:

  allocation            operator new / malloc-family / make_unique|make_shared
  stl-growth            push_back/resize/insert/... on a container that is not
                        arena-backed (FRACTAL_ARENA_OUT parameter or member,
                        or a local bound to a ScratchArena::BufferLease)
  throw                 throw statements
  unannotated-external  a call to a free function with no in-repo definition
                        and no whitelist entry
  shared-rmw            an atomic read-modify-write (fetch_*, exchange,
                        compare_exchange_*) or an update of a shared
                        registry metric (obs::Counter::Add,
                        obs::Histogram::Record): the hot path writes only
                        cache lines its own thread owns (DESIGN.md §6), so
                        per-unit tallies go to plain per-thread fields and
                        reach the registry at the step barrier

plus two repo-hygiene rules checked everywhere (not just on hot paths):

  raw-mutex             std::mutex / std::condition_variable outside
                        util/mutex.h (all locking goes through the annotated,
                        lockdep-checked wrappers)
  metric-name           a metric/trace/endpoint name literal that is not
                        registered in src/obs/metric_names.h (a typo would
                        silently create a fresh counter, or an exposition
                        endpoint no runbook links to)

Calls resolve to in-repo definitions by name, narrowed to the receiver's
class (and its subclasses) where the text names it: a local, parameter or
member declared in scope, `this`, a `C::` qualifier, the implicit `this`
of a member function, or a call result whose callee declares the class as
its return type (Repo.receiver_class).

`FRACTAL_HOT_ESCAPE("reason")` marks the remainder of its enclosing block as
an audited cold branch; `AllocGuard::Allow` scopes count the same way, and
`static` local initializers are treated as one-time cold setup.

Engines: with the libclang python bindings installed the checker parses real
ASTs driven by compile_commands.json (--engine=clang); without them it falls
back to a self-contained textual frontend (--engine=text) that understands
the repo's annotation conventions. --engine=auto (default) picks clang when
available. Both engines share the rule logic; CI gates on whichever engine
the host can run, like the clang-tidy stage.

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Self-test: --self-test runs the checker over tools/lint_fixtures/ and
verifies every `// LINT-EXPECT: <rule>` marker fires and every
`// LINT-EXPECT-CLEAN` file stays clean.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Files whose functions are treated as audited: the checker neither scans
# their bodies nor descends into calls that resolve only into them.
EXEMPT_FILES = {
    # The allocation-guard runtime interposes operator new itself.
    "src/util/alloc_guard.cc",
    # Lockdep is a debug instrument with its own allocation policy (and
    # deliberately raw std::mutex to avoid self-instrumentation recursion).
    "src/util/lockdep.cc",
    "src/util/lockdep.h",
    # Comparison baselines: not the Fractal data plane.
    "src/baselines/",
}

# Files allowed to name std::mutex / std::condition_variable directly.
RAW_MUTEX_ALLOWLIST = {
    "src/util/mutex.h",       # the annotated wrappers themselves
    "src/util/lockdep.cc",    # must not recurse into its own instrumentation
    "src/util/lockdep.h",
}

RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:recursive_|shared_|timed_)?mutex\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b")

# Free functions (no receiver) that are known not to allocate on the paths
# this repo uses them. Member calls are handled separately: growth methods
# are checked against arena-backedness, anything else unresolvable is
# considered part of the receiver's audited interface.
CALL_WHITELIST = {
    # <algorithm> / <numeric> / <bit> on caller-owned storage
    "min", "max", "swap", "move", "forward", "clamp", "abs",
    "fill", "fill_n", "copy", "copy_n", "equal",
    "upper_bound", "lower_bound", "binary_search", "equal_range",
    "find", "find_if", "all_of", "any_of", "none_of",
    "distance", "advance", "accumulate",
    "popcount", "countr_zero", "countl_zero", "bit_width", "rotl", "rotr",
    # <algorithm> erase-remove (shrinks, never grows)
    "remove_if", "remove",
    # <algorithm> in-place reordering: introsort and adjacent dedup use no
    # buffer (stable_sort / inplace_merge allocate and stay unlisted)
    "sort", "unique",
    # libc
    "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp", "strncmp",
    "snprintf", "vsnprintf", "getenv", "strtoull", "strtol", "write",
    "fwrite", "fflush", "va_start", "va_end", "va_copy",
    # <chrono> value types and clock reads
    "nanoseconds", "microseconds", "milliseconds", "seconds", "duration",
    "now", "time_point_cast", "duration_cast",
    # <thread> idling (steal-loop backoff)
    "sleep_for", "yield",
    # misc value construction
    "make_pair", "make_optional", "nullopt",
    # functional casts / fixed-size value types (no heap behind them)
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "size_t", "ptrdiff_t", "bool", "char", "int",
    "unsigned", "long", "float", "double", "VertexId", "EdgeId", "Label",
}

GROWTH_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "emplace",
    "assign", "append", "push_front", "emplace_front", "shrink_to_fit",
}

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()"        # new T / new T[n] (placement new is
    r"|(?<![\w.])new\s*\("             # not used in this tree) + new (…)
    r"|\b(?:malloc|calloc|realloc|strdup|aligned_alloc|posix_memalign)\s*\("
    r"|\bmake_unique\b|\bmake_shared\b")
THROW_RE = re.compile(r"(?<![\w.])throw\b")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "return", "catch", "try",
    "namespace", "class", "struct", "enum", "union", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "new", "delete", "co_return",
    "co_await", "co_yield", "defined", "noexcept", "requires", "concept",
    "operator",
}

MACRO_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

METRIC_LOOKUP_RE = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|NamedCounter|NamedGauge"
    r"|NamedHistogram)"
    r'\s*\(\s*"([^"]+)"')
TRACE_USE_RE = re.compile(
    r'\bFRACTAL_TRACE_(?:SPAN_V|SPAN|INSTANT)\s*\(\s*"([^"]+)"')
ENDPOINT_USE_RE = re.compile(r'\bAddEndpoint\s*\(\s*"([^"]+)"')

# shared-rmw: atomic member RMWs. Any of these on a hot path is a write to
# a line other threads write too (a thread-owned atomic needs no RMW: a
# relaxed load and store publish it).
ATOMIC_RMW_METHODS = {
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "exchange", "compare_exchange_weak", "compare_exchange_strong",
}
# shared-rmw: update methods of the shared registry metrics, flagged when
# the receiver is a registry handle (see Repo.shared_metric_handles).
SHARED_METRIC_METHODS = {"Add", "Record"}
# Functions returning a registry handle: `obs::Counter& Name(` or
# `Histogram& Name(` (declarations and definitions, possibly qualified).
METRIC_HANDLE_FN_RE = re.compile(
    r"\b(?:Counter|Histogram)\s*&\s*(?:\w+\s*::\s*)*(\w+)\s*\(")
# Locals bound to a registry handle: `obs::Counter& name =`.
METRIC_HANDLE_LOCAL_RE = re.compile(
    r"\b(?:Counter|Histogram)\s*&\s*(\w+)\s*=")

RULES = ("allocation", "stl-growth", "throw", "unannotated-external",
         "shared-rmw", "raw-mutex", "metric-name")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------------
# Lexical preprocessing
# --------------------------------------------------------------------------

def lex_strip(text, keep_strings):
    """Returns text with comments (and, unless keep_strings, string/char
    literals) replaced by spaces; newlines preserved so offsets and line
    numbers keep matching."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' or c == "'":
            quote = c
            if not keep_strings:
                out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    if not keep_strings:
                        if text[j] != "\n":
                            out[j] = " "
                        if text[j + 1] != "\n":
                            out[j + 1] = " "
                    j += 2
                    continue
                if not keep_strings and text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n and not keep_strings:
                out[j] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def strip_comments_and_strings(text):
    return lex_strip(text, keep_strings=False)


def blank_preprocessor_lines(code):
    """Blanks #-directive lines (including backslash continuations)."""
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            j = i
            while j < len(lines) and lines[j].rstrip().endswith("\\"):
                lines[j] = ""
                j += 1
            if j < len(lines):
                lines[j] = ""
            i = j + 1
        else:
            i += 1
    return "\n".join(lines)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Function model
# --------------------------------------------------------------------------

class FunctionDef:
    def __init__(self, path, name, qualname, header, body, body_offset,
                 full_code, exempt=False):
        self.path = path
        self.name = name
        self.qualname = qualname
        self.header = header
        self.body = body                # code (stripped) inside braces
        self.body_offset = body_offset  # offset of '{' in file code
        self.full_code = full_code      # whole-file stripped code
        self.exempt = exempt            # resolvable, but audited: not walked
        self.cls = None                 # owning class (Repo.assign_classes)
        self.hot = bool(re.search(r"\bFRACTAL_HOT\b(?!_)", header))
        self.arena_params = self._arena_params(header)
        self.suppressed = self._suppressed_spans()
        self.arena_locals = self._arena_locals()
        # Locals bound to lambdas: calling one runs code that is already
        # scanned inline as part of this body.
        self.lambda_locals = set(
            m.group(1) for m in re.finditer(r"\b(\w+)\s*=\s*\[", self.body))
        self.calls = self._extract_calls()

    def line(self):
        return line_of(self.full_code, self.body_offset)

    @staticmethod
    def _arena_params(header):
        names = set()
        lparen = header.find("(")
        if lparen < 0:
            return names
        params = header[lparen + 1:header.rfind(")")]
        for chunk in split_top_level(params, ","):
            if "FRACTAL_ARENA_OUT" not in chunk:
                continue
            idents = re.findall(r"[A-Za-z_]\w*", chunk)
            if idents:
                names.add(idents[-1])
        return names

    def _suppressed_spans(self):
        """[start, end) spans inside body that are audited escapes: the rest
        of the enclosing block after FRACTAL_HOT_ESCAPE / AllocGuard::Allow,
        plus `static` local-initializer statements (one-time setup)."""
        spans = []
        for m in re.finditer(
                r"\bFRACTAL_HOT_ESCAPE\b|\bAllocGuard\s*::\s*Allow\b",
                self.body):
            spans.append((m.start(), self._block_end(m.start())))
        for m in re.finditer(r"\bstatic\b|\bthread_local\b", self.body):
            end = self.body.find(";", m.end())
            spans.append((m.start(), len(self.body) if end < 0 else end + 1))
        return spans

    def _block_end(self, pos):
        depth = 0
        for i in range(pos, len(self.body)):
            c = self.body[i]
            if c == "{":
                depth += 1
            elif c == "}":
                if depth == 0:
                    return i
                depth -= 1
        return len(self.body)

    def is_suppressed(self, pos):
        return any(s <= pos < e for s, e in self.suppressed)

    def _arena_locals(self):
        """Local names that alias arena-backed storage."""
        names = set(self.arena_params)
        leases = set()
        for m in re.finditer(r"\bBufferLease\s+(\w+)\s*\(", self.body):
            leases.add(m.group(1))
            names.add(m.group(1))
        for m in re.finditer(r"[&*]\s*(\w+)\s*=\s*\*\s*(\w+)\b", self.body):
            if m.group(2) in leases or m.group(2) in names:
                names.add(m.group(1))
        for m in re.finditer(r"\*\s*(\w+)\s*=\s*(\w+)\s*\.\s*get\s*\(",
                             self.body):
            if m.group(2) in leases:
                names.add(m.group(1))
        return names

    def _extract_calls(self):
        """(offset, name, is_member) for every call-looking site. For a
        local declaration `Type name(args)` the recorded call is the
        constructor, i.e. `Type`."""
        calls = []
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", self.body):
            name = m.group(1)
            if name in CONTROL_KEYWORDS or name in self.lambda_locals:
                continue
            if name.startswith("__builtin_"):
                continue
            before = self.body[:m.start()].rstrip()
            if before.endswith("~"):
                continue  # destructor mention, not a call
            is_member = before.endswith(".") or before.endswith("->")
            if not is_member:
                prev = re.search(r"([A-Za-z_]\w*)$", before)
                if prev and prev.group(1) not in CONTROL_KEYWORDS:
                    # `Type name(args)`: a declaration — what actually runs
                    # is Type's constructor.
                    name = prev.group(1)
                    if name in self.lambda_locals \
                            or name.startswith("__builtin_"):
                        continue
            calls.append((m.start(), name, is_member))
        return calls

    def receiver_call_name(self, call_pos):
        """For a member call on a call result (`Fn(...).method(`), the name
        of `Fn`; None otherwise."""
        before = self.body[:call_pos].rstrip()
        if before.endswith("->"):
            before = before[:-2].rstrip()
        elif before.endswith("."):
            before = before[:-1].rstrip()
        else:
            return None
        if not before.endswith(")"):
            return None
        depth = 0
        for i in range(len(before) - 1, -1, -1):
            if before[i] == ")":
                depth += 1
            elif before[i] == "(":
                depth -= 1
                if depth == 0:
                    m = re.search(r"(\w+)\s*$", before[:i])
                    return m.group(1) if m else None
        return None

    def receiver_of(self, call_pos):
        """Immediate receiver identifier of a member call at call_pos, or
        None when the receiver is an expression (then treated non-arena
        unless it is a (*lease)-style deref of an arena local)."""
        before = self.body[:call_pos].rstrip()
        if before.endswith("->"):
            before = before[:-2]
        elif before.endswith("."):
            before = before[:-1]
        else:
            return None
        before = before.rstrip()
        m = re.search(r"\(\s*\*\s*(\w+)\s*\)$", before)
        if m:
            return m.group(1)
        m = re.search(r"(\w+)$", before)
        return m.group(1) if m else None


def split_top_level(text, sep):
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


# `class Name [final] [: bases] {` (also struct; attributes and alignas
# allowed before the name). Enum classes are skipped by the caller.
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::\s*([^;{}]*))?\{")
# A declaration `Type [<args>] [const] [&*] name` followed by what may end a
# declarator; group 1 is the (possibly qualified) type, group 2 the name.
DECL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*(?:<[^;{}()]*?>)?\s*"
    r"(?:const\s*)?[&*]*\s*(?:const\s+)?\b([A-Za-z_]\w*)\s*"
    r"(?=[=;,)\[{(]|:(?!:)|GUARDED_BY\b)")
NON_TYPES = CONTROL_KEYWORDS | {"const", "static", "constexpr", "mutable",
                                "inline", "virtual", "auto", "public",
                                "private", "protected", "friend", "using",
                                "typedef", "template", "typename", "goto",
                                "delete", "throw"}


def matching_brace(code, open_pos):
    """Offset of the '}' closing the '{' at open_pos (len(code) if none)."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def top_level_text(code, open_pos, close_pos):
    """The text between a '{' and its '}' with nested brace bodies dropped:
    a class body's own declarations, without its inline method bodies."""
    out, depth = [], 0
    for c in code[open_pos + 1:close_pos]:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            out.append(";")
            continue
        if depth == 0:
            out.append(c)
    return "".join(out)


def declared_type(text, name):
    """Type named by the last declaration of `name` in `text`, reduced to
    its final identifier (`obs::LocalHistogram` -> LocalHistogram); None
    when `name` is not declared there."""
    found = None
    for m in DECL_RE.finditer(text):
        if m.group(2) != name:
            continue
        type_name = re.sub(r"\s", "", m.group(1)).split("::")[-1]
        if type_name not in NON_TYPES:
            found = type_name
    return found


# The (possibly qualified) name of the function a signature declares: the
# first identifier followed by '('.
FUNC_NAME_RE = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*)(~?[A-Za-z_]\w*)\s*\(")
HEADER_REJECT = re.compile(
    r"^\s*(?:if|for|while|switch|do|else|try|catch|namespace|class|struct|"
    r"enum|union|return|case|default|extern)\b")


def extract_functions(path, code):
    """Finds function definitions in stripped code by locating each '{' and
    classifying the preceding header chunk."""
    functions = []
    i = 0
    n = len(code)
    while i < n:
        if code[i] != "{":
            i += 1
            continue
        # Header: text since the previous top-level terminator.
        start = max(code.rfind(";", 0, i), code.rfind("}", 0, i),
                    code.rfind("{", 0, i))
        header = code[start + 1:i].strip()
        func = classify_header(header)
        if func is None:
            i += 1
            continue
        body_start = i
        depth = 0
        j = i
        while j < n:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = code[body_start + 1:j]
        name, qualname = func
        functions.append(FunctionDef(path, name, qualname, header, body,
                                     body_start, code))
        # Continue scanning *inside* the body too (inline class members).
        i += 1
    return functions


def classify_header(header):
    """Returns (name, qualname) when header looks like a function signature,
    else None."""
    if not header or "(" not in header:
        return None
    if HEADER_REJECT.match(header):
        return None
    # A real signature has balanced parens; an unbalanced header is the
    # inside of a call argument list (e.g. a lambda passed to an algorithm).
    if header.count("(") != header.count(")"):
        return None
    # Assignment at paren depth 0 => initializer, lambda assignment, etc.
    depth = 0
    for k, c in enumerate(header):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == "=" and depth == 0:
            if header[k:k + 2] in ("==", "=>"):
                continue
            if k > 0 and header[k - 1] in "!<>+-*/%&|^=":
                continue
            if "operator" in header[:k]:
                continue
            return None
    m = FUNC_NAME_RE.search(header)
    if m is None:
        return None
    name = m.group(2)
    if name in CONTROL_KEYWORDS or MACRO_NAME_RE.match(name):
        return None
    qual = re.sub(r"\s", "", m.group(1))
    return name, qual + name


# --------------------------------------------------------------------------
# Repo model and rules
# --------------------------------------------------------------------------

def is_exempt(relpath):
    return any(relpath == e or (e.endswith("/") and relpath.startswith(e))
               for e in EXEMPT_FILES)


class Repo:
    def __init__(self, root, files, verbose=False):
        self.root = root
        self.files = files
        self.verbose = verbose
        self.raw = {}
        self.code = {}
        self.nocomment = {}
        self.functions = []
        self.arena_members = set()
        for rel in files:
            try:
                with open(os.path.join(root, rel), encoding="utf-8",
                          errors="replace") as fh:
                    text = fh.read()
            except OSError as err:
                print("fractal_lint: cannot read %s: %s" % (rel, err),
                      file=sys.stderr)
                continue
            self.raw[rel] = text
            code = blank_preprocessor_lines(strip_comments_and_strings(text))
            self.code[rel] = code
            # Comment-stripped but strings intact: what the metric-name rule
            # scans (name literals in comments are just prose).
            self.nocomment[rel] = lex_strip(text, keep_strings=True)
            for m in re.finditer(
                    r"FRACTAL_ARENA_OUT[^;{}()]*?(\w+)\s*"
                    r"(?:GUARDED_BY\s*\([^)]*\)\s*)?;", code):
                self.arena_members.add(m.group(1))
            # Exempt files still contribute *definitions* so calls into them
            # resolve (and are treated as audited); they are never scanned
            # or walked through.
            exempt = is_exempt(rel)
            for f in extract_functions(rel, code):
                f.exempt = exempt
                self.functions.append(f)
        self.index_classes()
        self.set_functions(self.functions)
        self.reached_from = {}
        # Names of functions that hand out shared registry metric handles.
        self.shared_metric_handles = set()
        for code in self.code.values():
            self.shared_metric_handles.update(
                m.group(1) for m in METRIC_HANDLE_FN_RE.finditer(code))

    # -- class model (receiver-aware call resolution) ---------------------

    def index_classes(self):
        """Class spans per file, plus each class's bases and data members
        (member name -> type; None when two declarations disagree)."""
        self.class_spans = {}
        self.class_bases = {}
        self.class_members = {}
        for rel, code in self.code.items():
            spans = []
            for m in CLASS_RE.finditer(code):
                if re.search(r"\benum\s+$", code[:m.start()]):
                    continue
                name = m.group(1)
                open_pos = m.end() - 1
                close_pos = matching_brace(code, open_pos)
                spans.append((open_pos, close_pos, name))
                bases = self.class_bases.setdefault(name, set())
                for base in split_top_level(m.group(2) or "", ","):
                    base = re.sub(r"<.*", "", base)
                    idents = re.findall(r"[A-Za-z_]\w*", base)
                    if idents:
                        bases.add(idents[-1])
                members = self.class_members.setdefault(name, {})
                body = top_level_text(code, open_pos, close_pos)
                for d in DECL_RE.finditer(body):
                    type_name = re.sub(r"\s", "", d.group(1)).split("::")[-1]
                    if type_name in NON_TYPES:
                        continue
                    member = d.group(2)
                    if members.get(member, type_name) != type_name:
                        type_name = None
                    members[member] = type_name
            self.class_spans[rel] = spans
        self.class_derived = {}
        for name, bases in self.class_bases.items():
            for base in bases:
                self.class_derived.setdefault(base, set()).add(name)

    def set_functions(self, functions):
        """Installs the function list: owning classes and the name index."""
        self.functions = functions
        for f in functions:
            f.cls = self.owning_class(f)
        self.defs_by_name = {}
        for f in functions:
            self.defs_by_name.setdefault(f.name, []).append(f)

    def owning_class(self, func):
        """`C` for an out-of-line `C::F`, else the innermost class whose
        body holds the definition; None for free functions."""
        parts = func.qualname.split("::")
        if len(parts) > 1 and parts[-2] in self.class_bases:
            return parts[-2]
        best = None
        for open_pos, close_pos, name in self.class_spans.get(func.path, []):
            if open_pos < func.body_offset < close_pos:
                if best is None or open_pos > best[0]:
                    best = (open_pos, name)
        return best[1] if best else None

    def class_family(self, cls):
        """`cls` and every class deriving from it: the targets a virtual
        call through a `cls` receiver can reach."""
        family, stack = set(), [cls]
        while stack:
            c = stack.pop()
            if c not in family:
                family.add(c)
                stack.extend(self.class_derived.get(c, ()))
        return family

    def member_type(self, cls, member):
        seen, stack = set(), [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            members = self.class_members.get(c, {})
            if member in members:
                return members[member]
            stack.extend(self.class_bases.get(c, ()))
        return None

    def receiver_class(self, func, pos, is_member):
        """Class of the object a call at `pos` runs on, when the text names
        it: a local, a parameter or a member declared in scope (`x.F()`,
        `x->F()`), a data member every declaring class gives one type
        (`a.x.F()`), `this`, a class qualifier (`C::F()`), the implicit
        `this` of an unqualified call in a member function, or a call result
        (`Fn().F()`) whose callee's definitions all return one class. None
        otherwise (auto, templates, ambiguous members and return types)."""
        before = func.body[:pos].rstrip()
        if not is_member:
            if before.endswith("::"):
                m = re.search(r"([A-Za-z_]\w*)\s*::$", before)
                return m.group(1) if m and m.group(1) in self.class_bases \
                    else None
            return func.cls
        before = before[:-2] if before.endswith("->") else before[:-1]
        before = before.rstrip()
        if before.endswith(")"):
            return self.return_class(func.receiver_call_name(pos))
        m = re.search(r"([A-Za-z_]\w*)$", before)
        if m is None:
            return None
        rest = before[:m.start()].rstrip()
        ident = m.group(1)
        if rest.endswith("::"):
            return None
        if rest.endswith((".", "->")):
            # Chained (`a.b.F()`): `b` is a data member of whatever `a` is;
            # named only when every class declaring a `b` agrees on its type.
            types = set(members[ident] for members in
                        self.class_members.values() if ident in members)
            type_name = types.pop() if len(types) == 1 else None
            return type_name if type_name in self.class_bases else None
        if ident == "this":
            return func.cls
        lparen = func.header.find("(")
        params = func.header[lparen + 1:func.header.rfind(")")] \
            if lparen >= 0 else ""
        type_name = declared_type(func.body[:m.start()], ident) or \
            declared_type(params + ",", ident)
        if type_name is None and func.cls is not None:
            type_name = self.member_type(func.cls, ident)
        return type_name if type_name in self.class_bases else None

    def return_class(self, name):
        """Class every in-repo definition of function `name` declares as its
        return type (by value, reference or pointer); None when `name` has
        no definition, returns a non-class, or its definitions disagree."""
        types = set()
        for d in self.defs_by_name.get(name) or ():
            m = FUNC_NAME_RE.search(d.header)
            prefix = d.header[:m.start()] if m else ""
            while re.search(r"<[^<>]*>", prefix):
                prefix = re.sub(r"<[^<>]*>", "", prefix)
            idents = [t for t in re.findall(r"[A-Za-z_]\w*", prefix)
                      if t not in NON_TYPES]
            types.add(idents[-1] if idents else None)
        type_name = types.pop() if len(types) == 1 else None
        return type_name if type_name in self.class_bases else None

    def resolve_call(self, func, pos, name, is_member):
        """In-repo definitions a call may run. By name, narrowed to the
        receiver's class family when the text names that class and the
        family defines `name`; the plain by-name set otherwise."""
        defs = self.defs_by_name.get(name)
        if not defs:
            return defs
        cls = self.receiver_class(func, pos, is_member)
        if cls is None:
            return defs
        family = self.class_family(cls)
        precise = [d for d in defs if d.cls in family]
        return precise or defs

    # -- hot-path walk -----------------------------------------------------

    def hot_roots(self):
        return [f for f in self.functions if f.hot and not f.exempt]

    def check_hot_paths(self):
        findings = []
        roots = self.hot_roots()
        visited = set()
        queue = list(roots)
        self.reached_from = {id(f): None for f in roots}
        while queue:
            func = queue.pop()
            if id(func) in visited:
                continue
            visited.add(id(func))
            findings.extend(self.scan_function(func))
            for pos, name, is_member in func.calls:
                if func.is_suppressed(pos):
                    continue
                if MACRO_NAME_RE.match(name):
                    continue
                defs = self.resolve_call(func, pos, name, is_member)
                if defs:
                    for callee in defs:
                        if callee.exempt:
                            continue  # audited interface, not walked
                        if id(callee) not in visited:
                            self.reached_from.setdefault(id(callee), func)
                            queue.append(callee)
                    continue
                if is_member or name in CALL_WHITELIST:
                    continue
                if name in GROWTH_METHODS:
                    continue  # handled by scan_function
                findings.append(Finding(
                    func.path, line_of(func.full_code,
                                       func.body_offset + pos),
                    "unannotated-external",
                    "call to '%s' from hot function '%s' has no in-repo "
                    "definition and no whitelist entry; annotate the callee, "
                    "whitelist it in tools/fractal_lint.py, or audit the "
                    "branch with FRACTAL_HOT_ESCAPE" % (name,
                                                        func.qualname)))
        if self.verbose:
            print("fractal_lint: %d hot roots, %d reachable functions"
                  % (len(roots), len(visited)), file=sys.stderr)
        return findings

    def explain(self, name_substr):
        """Prints the root-to-function call chain for every walked function
        whose qualified name contains name_substr (debugging aid)."""
        def display(func):
            if func.cls and "::" not in func.qualname:
                return "%s::%s" % (func.cls, func.qualname)  # inline member
            return func.qualname

        for func in self.functions:
            if id(func) not in self.reached_from:
                continue
            if name_substr not in display(func):
                continue
            chain = []
            cur = func
            while cur is not None:
                chain.append("%s (%s:%d)" % (display(cur), cur.path,
                                             cur.line()))
                cur = self.reached_from.get(id(cur))
            print(" <- ".join(chain))

    def scan_function(self, func):
        findings = []

        def report(pos, rule, message):
            findings.append(Finding(
                func.path, line_of(func.full_code, func.body_offset + pos),
                rule, message))

        for m in ALLOC_RE.finditer(func.body):
            if func.is_suppressed(m.start()):
                continue
            report(m.start(), "allocation",
                   "heap allocation reachable from a FRACTAL_HOT root "
                   "(in '%s'); use the ScratchArena or audit with "
                   "FRACTAL_HOT_ESCAPE" % func.qualname)
        for m in THROW_RE.finditer(func.body):
            if func.is_suppressed(m.start()):
                continue
            report(m.start(), "throw",
                   "throw reachable from a FRACTAL_HOT root (in '%s'); hot "
                   "paths report errors by value" % func.qualname)
        for pos, name, is_member in func.calls:
            if not is_member or name not in GROWTH_METHODS:
                continue
            if func.is_suppressed(pos):
                continue
            recv = func.receiver_of(pos)
            if recv is not None and (recv in func.arena_locals
                                     or recv in self.arena_members):
                continue
            report(pos, "stl-growth",
                   "'%s.%s(...)' grows a container that is not arena-backed "
                   "(in '%s'); lease it from the ScratchArena, annotate it "
                   "FRACTAL_ARENA_OUT, or audit with FRACTAL_HOT_ESCAPE"
                   % (recv or "<expr>", name, func.qualname))
        self.scan_shared_rmw(func, report)
        return findings

    def scan_shared_rmw(self, func, report):
        """shared-rmw: atomic RMWs and shared registry-metric updates."""
        handle_locals = set(
            m.group(1) for m in METRIC_HANDLE_LOCAL_RE.finditer(func.body))
        for pos, name, is_member in func.calls:
            if not is_member or func.is_suppressed(pos):
                continue
            if name in ATOMIC_RMW_METHODS:
                report(pos, "shared-rmw",
                       "atomic '%s' reachable from a FRACTAL_HOT root (in "
                       "'%s'); count into a thread-owned field and publish "
                       "with a relaxed store, or audit the claim protocol "
                       "with FRACTAL_HOT_ESCAPE" % (name, func.qualname))
            elif name in SHARED_METRIC_METHODS:
                recv = func.receiver_call_name(pos)
                if recv in self.shared_metric_handles:
                    recv += "()"
                else:
                    recv = func.receiver_of(pos)
                    if recv not in handle_locals:
                        continue
                report(pos, "shared-rmw",
                       "shared metric update '%s.%s(...)' reachable from a "
                       "FRACTAL_HOT root (in '%s'); tally in a per-thread "
                       "field and flush at FinishThread, or audit with "
                       "FRACTAL_HOT_ESCAPE" % (recv, name, func.qualname))

    # -- repo-hygiene rules ------------------------------------------------

    def check_raw_mutex(self):
        findings = []
        for rel, code in self.code.items():
            if rel in RAW_MUTEX_ALLOWLIST:
                continue
            for m in RAW_MUTEX_RE.finditer(code):
                findings.append(Finding(
                    rel, line_of(code, m.start()), "raw-mutex",
                    "raw std synchronization primitive; use "
                    "fractal::Mutex/CondVar from util/mutex.h (annotated + "
                    "lockdep-checked)"))
        return findings

    def check_metric_names(self, registry_rel="src/obs/metric_names.h"):
        findings = []
        registry_raw = self.raw.get(registry_rel)
        if registry_raw is None:
            reg_path = os.path.join(self.root, registry_rel)
            try:
                with open(reg_path, encoding="utf-8") as fh:
                    registry_raw = fh.read()
            except OSError:
                return [Finding(registry_rel, 1, "metric-name",
                                "metric/trace name registry not found")]
        names = parse_registry(registry_raw)
        for rel, raw in self.nocomment.items():
            if rel == registry_rel:
                continue
            for regex, kind in ((METRIC_LOOKUP_RE, "kMetricNames"),
                                (TRACE_USE_RE, "kTraceNames"),
                                (ENDPOINT_USE_RE, "kEndpointNames")):
                for m in regex.finditer(raw):
                    name = m.group(1)
                    if name.startswith("test.") or name.startswith("test/"):
                        continue
                    if name not in names[kind]:
                        findings.append(Finding(
                            rel, line_of(raw, m.start()), "metric-name",
                            "metric/trace name \"%s\" is not registered in "
                            "src/obs/metric_names.h (%s); a typo would "
                            "silently create a fresh series" % (name, kind)))
        return findings

    def check_all(self):
        findings = []
        findings.extend(self.check_hot_paths())
        findings.extend(self.check_raw_mutex())
        findings.extend(self.check_metric_names())
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings


def parse_registry(raw):
    names = {"kMetricNames": set(), "kTraceNames": set(),
             "kEndpointNames": set()}
    for kind in names:
        m = re.search(kind + r"\[\]\s*=\s*\{(.*?)\};", raw, re.S)
        if m:
            names[kind].update(re.findall(r'"([^"]+)"', m.group(1)))
    return names


# --------------------------------------------------------------------------
# libclang engine (preferred when available)
# --------------------------------------------------------------------------

def try_clang_functions(root, files, compile_commands, verbose):
    """Builds the FunctionDef list from real ASTs via clang.cindex. Returns
    None when libclang is unavailable or fails, in which case the textual
    frontend is used. Downstream rule logic is shared either way."""
    try:
        from clang import cindex  # noqa: F401
    except Exception:
        return None
    try:
        index = cindex.Index.create()
    except Exception as err:
        if verbose:
            print("fractal_lint: libclang unusable (%s); using textual "
                  "engine" % err, file=sys.stderr)
        return None
    args_by_file = {}
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    rel = os.path.relpath(entry["file"], root)
                    raw_args = entry.get("arguments")
                    if raw_args is None:
                        raw_args = entry.get("command", "").split()
                    args = [a for a in raw_args[1:]
                            if not a.endswith(".o") and a not in
                            ("-c", "-o") and not a.endswith(".cc")]
                    args_by_file[rel] = args
        except (OSError, ValueError, KeyError):
            pass

    functions = []
    kinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
             cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
             cindex.CursorKind.FUNCTION_TEMPLATE)
    for rel in files:
        if is_exempt(rel) or not rel.endswith(".cc"):
            continue
        path = os.path.join(root, rel)
        args = args_by_file.get(rel, ["-std=c++20",
                                      "-I" + os.path.join(root, "src")])
        try:
            tu = index.parse(path, args=args)
        except Exception:
            return None
        with open(path, encoding="utf-8", errors="replace") as fh:
            code = blank_preprocessor_lines(
                strip_comments_and_strings(fh.read()))

        def visit(cursor):
            for child in cursor.get_children():
                if (child.kind in kinds and child.is_definition()
                        and child.location.file is not None
                        and os.path.samefile(str(child.location.file), path)):
                    ext = child.extent
                    start = offset_of(code, ext.start.line, ext.start.column)
                    end = offset_of(code, ext.end.line, ext.end.column)
                    chunk = code[start:end]
                    brace = chunk.find("{")
                    if brace < 0:
                        continue
                    header = chunk[:brace].strip()
                    hot = any(a.spelling == "fractal_hot"
                              for a in annotations(child))
                    if hot and "FRACTAL_HOT" not in header:
                        header = "FRACTAL_HOT " + header
                    functions.append(FunctionDef(
                        rel, child.spelling, qualname_of(child), header,
                        chunk[brace + 1:chunk.rfind("}")], start + brace,
                        code))
                visit(child)

        def annotations(cursor):
            return [c for c in cursor.get_children()
                    if c.kind == cindex.CursorKind.ANNOTATE_ATTR]

        visit(tu.cursor)
    if verbose:
        print("fractal_lint: clang engine parsed %d function definitions"
              % len(functions), file=sys.stderr)
    return functions


def qualname_of(cursor):
    parts = []
    c = cursor
    while c is not None and c.spelling:
        parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts[:2]))


def offset_of(code, line, column):
    lines = code.split("\n")
    return sum(len(l) + 1 for l in lines[:line - 1]) + column - 1


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def repo_source_files(root):
    src = []
    for base in ("src",):
        for dirpath, _, filenames in os.walk(os.path.join(root, base)):
            if "CMakeFiles" in dirpath:
                continue
            for fn in sorted(filenames):
                if fn.endswith((".h", ".cc")):
                    src.append(os.path.relpath(os.path.join(dirpath, fn),
                                               root))
    return sorted(src)


def run_repo(args):
    root = os.path.abspath(args.repo)
    files = repo_source_files(root)
    if not files:
        print("fractal_lint: no sources under %s/src" % root,
              file=sys.stderr)
        return 2
    repo = Repo(root, files, verbose=args.verbose)
    engine = "text"
    if args.engine in ("auto", "clang"):
        clang_functions = try_clang_functions(root, files,
                                              args.compile_commands,
                                              args.verbose)
        if clang_functions is not None:
            # Headers are still modeled textually (libclang sees them only
            # through includes); .cc bodies come from the AST.
            header_functions = [f for f in repo.functions
                                if f.path.endswith(".h")]
            repo.set_functions(header_functions + clang_functions)
            engine = "clang"
        elif args.engine == "clang":
            print("fractal_lint: --engine=clang requested but libclang "
                  "python bindings are unavailable", file=sys.stderr)
            return 2
    if args.list_roots:
        for f in sorted(repo.hot_roots(), key=lambda f: (f.path, f.line())):
            print("%s:%d: %s" % (f.path, f.line(), f.qualname))
        return 0
    findings = repo.check_all()
    if args.explain:
        repo.explain(args.explain)
    for f in findings:
        print(f)
    summary = ("fractal_lint[%s]: %d finding(s) across %d file(s), "
               "%d hot root(s)"
               % (engine, len(findings), len(files), len(repo.hot_roots())))
    print(summary, file=sys.stderr)
    return 1 if findings else 0


EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([a-z-]+)")
EXPECT_CLEAN_RE = re.compile(r"//\s*LINT-EXPECT-CLEAN")


def run_self_test(args):
    root = os.path.abspath(args.repo)
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    fixtures = sorted(
        os.path.relpath(os.path.join(fixture_dir, fn), root)
        for fn in os.listdir(fixture_dir) if fn.endswith((".cc", ".h")))
    if not fixtures:
        print("fractal_lint: no fixtures under tools/lint_fixtures",
              file=sys.stderr)
        return 2
    # The registry and annotation vocabulary come from the real tree.
    repo = Repo(root, fixtures + ["src/util/hot_annotations.h"],
                verbose=args.verbose)
    findings = repo.check_all()
    by_file = {}
    for f in findings:
        by_file.setdefault(f.path, set()).add(f.rule)
    failures = []
    for rel in fixtures:
        raw = repo.raw.get(rel, "")
        expected = set(EXPECT_RE.findall(raw))
        got = by_file.get(rel, set())
        if EXPECT_CLEAN_RE.search(raw):
            if got:
                failures.append("%s: expected clean, got %s"
                                % (rel, sorted(got)))
            continue
        if not expected:
            continue
        missing = expected - got
        unexpected = got - expected
        if missing:
            failures.append("%s: expected rule(s) %s did not fire"
                            % (rel, sorted(missing)))
        if unexpected:
            failures.append("%s: unexpected rule(s) %s fired"
                            % (rel, sorted(unexpected)))
    if args.verbose or failures:
        for f in findings:
            print(f)
    if failures:
        print("fractal_lint --self-test: FAIL", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print("fractal_lint --self-test: OK (%d fixtures, %d findings matched)"
          % (len(fixtures), len(findings)), file=sys.stderr)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="fractal_lint.py",
        description="hot-path allocation-discipline checker (DESIGN.md §9)")
    parser.add_argument("--repo", default=default_repo_root(),
                        help="repository root (default: the script's repo)")
    parser.add_argument("--compile-commands",
                        default=None,
                        help="compile_commands.json for the clang engine "
                             "(default: <repo>/build/compile_commands.json)")
    parser.add_argument("--engine", choices=("auto", "text", "clang"),
                        default="auto")
    parser.add_argument("--self-test", action="store_true",
                        help="check the seeded fixtures under "
                             "tools/lint_fixtures/")
    parser.add_argument("--list-roots", action="store_true",
                        help="list FRACTAL_HOT roots and exit")
    parser.add_argument("--explain", metavar="NAME",
                        help="print the root-to-function call chain for "
                             "walked functions whose name contains NAME")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.compile_commands is None:
        args.compile_commands = os.path.join(args.repo, "build",
                                             "compile_commands.json")
    if args.self_test:
        return run_self_test(args)
    return run_repo(args)


def default_repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
