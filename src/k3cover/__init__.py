"""Which singular K3 surfaces doubly cover an Enriques surface.

The question is decided from the transcendental lattice alone: a form
(a, b, c) covers exactly when [[2a, c], [c, 2b]] embeds primitively into
U + U(2) + E8(2) with no norm -2 vector orthogonal to the image.  `classify`
answers it and attaches a replayable certificate.
"""
