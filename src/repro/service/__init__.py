"""``repro.service`` -- serve a warm expression store over HTTP/JSON.

A stdlib-only client/server pair that puts the :mod:`repro.api`
pipeline on the wire:

* :class:`ReproServer` (:mod:`repro.service.server`) -- a threaded
  ``http.server`` endpoint owning one :class:`~repro.api.Session`;
  ``repro serve`` starts it from the shell.
* :class:`ServiceClient` (:mod:`repro.service.client`) -- a thin
  ``urllib`` client mirroring the session surface: ``hash_corpus`` /
  ``intern_many`` / ``stats`` / snapshot download & upload.

Corpora travel as a compiled arena's columns
(:mod:`repro.service.arena_body`, what ``hash_corpus`` and
``intern_many`` send) or as the flat postorder JSON documents of
:func:`repro.lang.sexpr.to_wire`; whole stores travel as the existing
versioned snapshot wire format (:func:`repro.store.snapshot_to_bytes`
/ ``snapshot_from_bytes``), so a corpus interned once on a server can
be pulled warm into any process -- and client stores can be pushed up
and merged.  See the README's "Service API" section for the protocol.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproServer, serve

__all__ = ["ReproServer", "ServiceClient", "ServiceError", "serve"]
