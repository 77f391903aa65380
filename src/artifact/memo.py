"""Every table the engine keeps from one call to the next.

Each table is a plain dict that one function reads and, on a miss,
fills.  Nothing bounds them but ``clear()``, which empties all seven in
place for long-lived callers and tests; a CLI run never calls it.

* ``BRACKETS``: a connected dart component's key (``web._component_bfs``)
  to its bracket; filled by ``web._bracket_component``.
* ``FLATTENINGS``: ``(diagram, bits)`` to the flattening there, with the
  loop ids of its smoothed crossings; filled by ``diagram._flatten_state``
  with one unzip of a cached flattening (the only surgery cube edges need).
  Every diagram made holds its all-bridged flattening here, even when
  nothing else is flattened: ``LinkDiagram.from_crossings`` builds it as
  the planarity check.
* ``SHAPE_IDS``: a ``foam.HalfShape`` to its small id, drawn from
  ``SHAPE_COUNTER``; filled by ``foam._intern_shape``.  The counter never
  restarts, so a half built before a clear keeps an id no later shape
  gets: its glues can miss, never find another shape's plan.
* ``GLUE_PLANS``: the pair of shape ids of a left and a right half to
  their ``foam._GluePlan``; filled by ``foam._plan_of``.  Each plan
  carries the value of every summed label vector it has made, keyed by
  the packed int of the labels (``foam._project``), filled by
  ``foam.pair_halves``.
* ``COLOURINGS``: a closed foam's ``(circles, need)`` to its signed
  colouring count; filled by ``foam._forced_value``, the evaluation
  that ``foam.evaluate`` runs on a ``PreFoam`` and ``foam.pair_halves``
  on each summed label vector a plan has not met.
* ``SPACES``: a canonical web's exact key to the ``webhom.StateSpace``
  of its relabeling class; filled by ``webhom.state_space``.
* ``INDUCED``: a class of movies (keyed as ``webhom.induced_matrix``
  says) to its sparse matrix; filled by ``webhom.induced_matrix``.
"""

import itertools

BRACKETS: dict = {}
FLATTENINGS: dict = {}
SHAPE_IDS: dict = {}
SHAPE_COUNTER = itertools.count()
GLUE_PLANS: dict = {}
COLOURINGS: dict = {}
SPACES: dict = {}
INDUCED: dict = {}


def clear() -> None:
    """Empty every table; the shape-id counter runs on."""
    tables = BRACKETS, FLATTENINGS, SHAPE_IDS, GLUE_PLANS, COLOURINGS, SPACES, INDUCED
    for table in tables:
        table.clear()
