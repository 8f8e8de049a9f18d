"""Layered end-to-end benchmark of the ring stack (see NOTES.md)."""
