"""Operators on the training-data path: text stats and the north-rule
tokenizer, dedup and decontamination, BPE, token ops and packing, shuffle
and sampling, similarity, joins, and the sketches the table store uses.
Import each submodule by name; this package imports none of them."""
