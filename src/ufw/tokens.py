"""One tokenizer and cursor for both text grammars: generalized polynomials
and first-order formulas.  A grammar passes its own token regex, which skips
leading whitespace and captures one token in group 1."""

from .errors import ParseError

# each parser takes every level of nesting through Cursor.nested, so no
# input drives it, or a recursive walk over its tree, near the recursion limit
MAX_NESTING = 100


class Cursor:
    """The tokens of one text, a read position and a nesting depth;
    ``too_deep`` names what nests, for the depth error."""

    def __init__(self, token_re, text, too_deep):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = token_re.match(text, pos)
            if not m:
                rest = text[pos:].lstrip()
                if rest:
                    # a failed match consumes no whitespace, so skip it
                    # here to name the bad character itself
                    bad = len(text) - len(rest)
                    raise ParseError("unexpected character %r" % rest[0], position=bad)
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.text = text
        self.too_deep = too_deep
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx][0] if self.idx < len(self.tokens) else None

    def take(self, expected=None):
        """The next token and its position; it must be ``expected`` if given."""
        if self.idx >= len(self.tokens):
            raise ParseError("unexpected end of input", position=len(self.text))
        tok, pos = self.tokens[self.idx]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r" % (expected, tok), position=pos)
        self.idx += 1
        return tok, pos

    def nested(self, pos, parse, *args):
        """parse(*args) one level deeper, for a level that opens at pos."""
        if self.depth == MAX_NESTING:
            raise ParseError("%s nest deeper than %d" % (self.too_deep, MAX_NESTING), position=pos)
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def finish(self, node):
        """node, once every token has been read."""
        if self.idx != len(self.tokens):
            tok, pos = self.tokens[self.idx]
            raise ParseError("trailing input %r" % tok, position=pos)
        return node
