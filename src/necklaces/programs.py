"""Layered read-once branching programs for rotation-threshold languages.

A program reads a fixed-length word one symbol per layer and follows a
deterministic arc; every node has an arc for every symbol, so no program is
partial.  The accepted-word count is computed exactly by a forward pass with
big-integer accumulators per node (the graph is layered, so a single pass is
exact).  Every program, the union and intersection products included, is
built by one breadth-first construction (_build_layered).

The language of interest: words with some rotation strictly below a
threshold x.  It splits as the union of

  * contiguous witnesses: a substring of the word is a witness for x
    (a witness is s0 where s1 is a prefix of x); and
  * wraparound witnesses: a nonempty suffix u and nonempty prefix v of
    the word satisfy uv = witness.

Suffix tracking uses positional pairs (length, flipped?) into x: a word in
the witness-prefix language is either a prefix of x or a prefix of x with
its final 1 replaced by 0, so no sets of strings are ever materialized.
Prefix tracking for the wraparound case must follow witness *suffixes*
(arbitrary mid-x starting points), which the positional pairs cannot
express; those states are labeled by their content, tested against two
languages listed once at construction as O(n^2) substrings of x.

Witness occurrences are restricted to starts at multiples of a block width
t, which is what rotation by whole encoded symbols requires (t = 1 for a
plain binary threshold); every node carries its coordinate mod t.

`count_rotation_below` and `count_rotation_within` are the entry points
from q-ary thresholds: the package counts with `engine`, and these programs
are kept as its materialized cross-check.
"""

from dataclasses import dataclass, field

from .errors import LayerMismatch
from .words import bin_encode, bits_for, borders, complement

@dataclass
class BranchingProgram:
    num_layers: int
    alphabet_size: int
    layers: list = field(repr=False)  # layers[j]: list of node labels
    arcs: list = field(repr=False)  # arcs[j][i][sym] -> index at layer j+1
    accepting: frozenset  # indices into layers[num_layers]

    def distinct_labels(self):
        """Distinct automaton states ignoring layer position."""
        return {label for layer in self.layers for label in layer}


def count_accepted(bp):
    """Exact number of words routed from the start node to an accepting node."""
    counts = [1] + [0] * (len(bp.layers[0]) - 1)
    for j in range(bp.num_layers):
        nxt = [0] * len(bp.layers[j + 1])
        row = bp.arcs[j]
        for i, c in enumerate(counts):
            if c:
                for dst in row[i]:
                    nxt[dst] += c
        counts = nxt
    return sum(counts[i] for i in bp.accepting)


def accepts(bp, symbols):
    """Run the program on one word (test utility)."""
    if len(symbols) != bp.num_layers:
        raise ValueError("word length does not match program length")
    node = 0
    for j, s in enumerate(symbols):
        node = bp.arcs[j][node][s]
    return node in bp.accepting


def _build_layered(num_layers, alphabet_size, start_label, step, accept):
    """Generic BFS construction of a layered program.

    step(label, symbol, layer) -> next label; accept(label) -> bool at the end.
    Discovery order is deterministic, so node numbering is reproducible.
    """
    layers = [[start_label]]
    arcs = []
    for j in range(num_layers):
        nxt_index = {}
        nxt_labels = []
        rows = []
        for label in layers[j]:
            row = []
            for sym in range(alphabet_size):
                lab2 = step(label, sym, j)
                i2 = nxt_index.get(lab2)
                if i2 is None:
                    i2 = len(nxt_labels)
                    nxt_index[lab2] = i2
                    nxt_labels.append(lab2)
                row.append(i2)
            rows.append(row)
        arcs.append(rows)
        layers.append(nxt_labels)
    accepting = frozenset(i for i, lab in enumerate(layers[-1]) if accept(lab))
    return BranchingProgram(num_layers, alphabet_size, layers, arcs, accepting)


# ---------------------------------------------------------------------------
# positional suffix states for binary thresholds


class _SuffixTracker:
    """Longest suffix lying in the witness-prefix language, positionally.

    States are (length, flipped) pairs; flipped means the final symbol of the
    corresponding prefix of x, which is 1 there, was replaced by 0.
    """

    def __init__(self, bits):
        self.x = bits
        n = len(bits)
        self.n = n
        self.border = borders(bits)
        self.last_one = None
        for i in range(n - 1, -1, -1):
            if bits[i] == 1:
                self.last_one = i
                break
        self._chain0 = {}

    def chain0(self, ell):
        got = self._chain0.get(ell)
        if got is None:
            c = [ell]
            while c[-1] > 0:
                c.append(self.border[c[-1]])
            got = tuple(c)
            self._chain0[ell] = got
        return got

    def chain(self, state):
        """Suffix lengths m of the state's string that equal x[0:m], descending."""
        ell, flipped = state
        if not flipped:
            return self.chain0(ell)
        out = [c + 1 for c in self.chain0(ell - 1) if self.x[c] == 0]
        out.append(0)
        return tuple(out)

    def step(self, state, bit):
        x = self.x
        k_last = self.last_one
        for m in self.chain(state):
            if m >= self.n:
                continue
            if bit == 0 and x[m] == 1:
                return (m + 1, True)
            if bit == x[m] and k_last is not None and m + 1 <= k_last:
                return (m + 1, False)
        return (0, False)

    def fires(self, state, bit, pos, t):
        """Does reading `bit` at 0-indexed position `pos` complete a witness?

        Only witnesses starting at coordinates divisible by t count; the
        witness through chain length m starts at pos - m.
        """
        if bit != 0:
            return False
        for m in self.chain(state):
            if m < self.n and self.x[m] == 1:
                if (pos - m) % t == 0:
                    return True
        return False


# prefix-side tracking for wraparound witnesses (content-addressed states)


class _PrefixTracker:
    """Longest prefix of the input lying among witness suffixes of x.

    A witness suffix is x[i:k]0 with x[k] = 1.  While the input prefix is
    still extendable to one, the state holds it verbatim; once it dies it is
    frozen to the longest input prefix that is a complete witness suffix.
    `live` holds every prefix of a witness suffix (the empty word iff x has a 1).
    """

    def __init__(self, bits):
        ones = [k for k, b in enumerate(bits) if b == 1]
        self.complete = {bits[i:k] + (0,) for k in ones for i in range(k + 1)}
        last = ones[-1] if ones else -1
        self.live = self.complete | {bits[i:j] for j in range(last + 1) for i in range(j + 1)}

    def step(self, state, bit):
        mode, content = state
        if mode == "frozen":
            return state
        u = content + (bit,)
        if u in self.live:
            return ("live", u)
        return ("frozen", self.final_value(("live", u)))

    def final_value(self, state):
        mode, u = state
        if mode == "frozen":
            return u
        return next((u[:m] for m in range(len(u), 0, -1) if u[:m] in self.complete), ())


def _wrap_accepts(suffix_tracker, prefix_tracker, suffix_state, prefix_state, t):
    """Final test: a nonempty suffix u and nonempty prefix v with uv a witness.

    u must be x[0:m] with m a multiple of t, and v the
    matching witness suffix x[m:k]0; u ranges over the border chain of the
    final suffix state, v over prefixes of the final prefix-side value.
    """
    x = suffix_tracker.x
    n = suffix_tracker.n
    r = prefix_tracker.final_value(prefix_state)
    for m in suffix_tracker.chain(suffix_state):
        if m < 1 or m >= n or m % t != 0:
            continue
        for k in range(m, n):
            if x[k] != 1:
                continue
            span = k - m
            if span + 1 <= len(r) and r[span] == 0 and r[:span] == tuple(x[m:k]):
                return True
    return False


def build_contiguous(x, t=1):
    """Program accepting words containing a witness for x as a substring.

    Only block-aligned witness starts count.  Nodes are (suffix-state,
    seen-witness bit, coordinate mod t).
    """
    bits = x.bits
    tracker = _SuffixTracker(bits)

    def step(label, sym, j):
        state, fired, _ = label
        fired2 = fired or tracker.fires(state, sym, j, t)
        return tracker.step(state, sym), fired2, (j + 1) % t

    return _build_layered(len(bits), 2, ((0, False), False, 0), step, lambda lab: lab[1])


def build_wraparound(x, t=1):
    """Program accepting words with a wraparound witness for x.

    Nodes pair the suffix tracker with the prefix-side tracker; acceptance
    requires a nonempty suffix u = x[0:m] (m divisible by t) and a nonempty
    prefix v with uv a witness.
    """
    bits = x.bits
    st = _SuffixTracker(bits)
    pt = _PrefixTracker(bits)

    def step(label, sym, j):
        return st.step(label[0], sym), pt.step(label[1], sym), (j + 1) % t

    def accept(label):
        return _wrap_accepts(st, pt, label[0], label[1], t)

    return _build_layered(len(bits), 2, ((0, False), ("live", ()), 0), step, accept)


def _combine(a, b, accept_rule):
    if a.num_layers != b.num_layers:
        raise LayerMismatch(
            f"cannot combine programs of lengths {a.num_layers} and {b.num_layers}"
        )
    if a.alphabet_size != b.alphabet_size:
        raise LayerMismatch("cannot combine programs over different alphabets")

    def step(label, sym, j):
        return a.arcs[j][label[0]][sym], b.arcs[j][label[1]][sym]

    def accept(label):
        return accept_rule(label[0] in a.accepting, label[1] in b.accepting)

    bp = _build_layered(a.num_layers, a.alphabet_size, (0, 0), step, accept)
    # expose the underlying labels so products stay inspectable
    bp.layers = [[(a.layers[j][ia], b.layers[j][ib]) for ia, ib in layer]
                 for j, layer in enumerate(bp.layers)]
    return bp


def build_union(a, b):
    """Product program accepting the union of the two accepted sets."""
    return _combine(a, b, lambda x, y: x or y)


def build_intersection(a, b):
    """Product program accepting the intersection of the two accepted sets."""
    return _combine(a, b, lambda x, y: x and y)


def build_alphabet_restriction(n, t, q):
    """Program over tn bits accepting words whose aligned t-blocks are all < q."""
    if t != bits_for(q):
        raise ValueError("block width must match the symbol encoding width")
    target = tuple((q - 1) >> (t - 1 - r) & 1 for r in range(t))

    def step(label, sym, j):
        if label == "dead":
            return "dead"
        r = j % t
        if label == "eq":
            if sym == target[r]:
                nxt = "eq"
            elif sym < target[r]:
                nxt = "lt"
            else:
                return "dead"
        else:
            nxt = "lt"
        return "eq" if (j + 1) % t == 0 else nxt

    return _build_layered(t * n, 2, "eq", step, lambda lab: lab == "eq")


def build_rotation_witness(x, t):
    """Program accepting words some block rotation of which is below x.

    x is the block encoding of the threshold (length divisible by t); the
    program is the union of the block-aligned contiguous and wraparound
    variants, per the split of rotations into the two witness placements.
    """
    if len(x.bits) % t != 0:
        raise ValueError("threshold length must be a multiple of the block width")
    return build_union(build_contiguous(x, t=t), build_wraparound(x, t=t))


def count_rotation_below(x):
    """#{y : some rotation of y below x}, counted on the paper's programs.

    The rotation-witness program over the binary encoding of x, intersected
    with the restriction to valid t-bit symbols (t = bits_for(q)), counts
    what `engine.count_below` counts arithmetically; it is materialized only
    as a cross-check.
    """
    t = bits_for(x.q)
    return count_accepted(build_intersection(
        build_rotation_witness(bin_encode(x), t), build_alphabet_restriction(x.n, t, x.q)))


def _swap_arcs(bp):
    """The program run on complemented bits: every node's 0 and 1 arcs swapped."""
    return BranchingProgram(bp.num_layers, bp.alphabet_size, bp.layers,
                            [[row[::-1] for row in rows] for rows in bp.arcs], bp.accepting)


def count_rotation_within(x, ceiling):
    """#{y : some rotation of y below x, none above ceiling}, on the paper's programs.

    For q = 2^t only: there the complement q - 1 - s of a symbol is the
    bitwise complement of its t-bit block, so y has a rotation above the
    ceiling iff y's complemented encoding has one below the complemented
    ceiling, which the witness program with swapped arcs reads off y itself.
    Every t-bit block is a symbol, so no alphabet restriction is needed.
    `engine.count_below_with_ceiling` counts the same arithmetically.
    """
    t = bits_for(x.q)
    if x.q != 1 << t or ceiling.q != x.q:
        raise ValueError(f"needs one alphabet size, a power of two; got {x.q} and {ceiling.q}")
    below = build_rotation_witness(bin_encode(x), t)
    above = _swap_arcs(build_rotation_witness(bin_encode(complement(ceiling)), t))
    return count_accepted(_combine(below, above, lambda a, b: a and not b))
