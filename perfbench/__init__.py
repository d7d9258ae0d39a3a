"""End-to-end benchmark of the DART pipeline; see ``README.md``."""
