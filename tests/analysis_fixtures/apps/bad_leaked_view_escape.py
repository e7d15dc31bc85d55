"""Seeded violations: every escape shape the ``leaked-view-escape``
rule must catch — once the raw view outlives the expression, any later
writer mutates bytes behind the chunk stamps' back."""

import numpy as np


def returned(region):
    return np.frombuffer(region.buffer, dtype=np.uint8)  # flagged: returned


def stored_on_self(self, region):
    self.grid = np.frombuffer(region.buffer, dtype="f8")  # flagged: attribute


def appended(region, views):
    x = np.frombuffer(region.buffer, dtype=np.uint8)
    views.append(x)                 # flagged: captured by a container


def in_literals(region):
    x = np.frombuffer(region.buffer, dtype=np.uint8)
    pair = [x, None]                # flagged: container literal
    table = {"grid": x}             # flagged: dict literal
    return pair, table


def yielded(region):
    x = np.frombuffer(region.buffer, dtype=np.uint8)
    yield x                         # flagged: yielded to the caller


def derived_view_escape(region):
    peek = np.frombuffer(region.buffer, dtype="f8").reshape(8, -1)
    return peek                     # flagged: taint survives reshape
