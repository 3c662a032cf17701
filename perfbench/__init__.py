"""End-to-end sweep-cell benchmark for ``repro`` (see ``README.md``)."""
