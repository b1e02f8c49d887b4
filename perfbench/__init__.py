"""End-to-end benchmark of the flex-offer engine (see README.md)."""
