"""trilie: exact-arithmetic kernel for 3-Lie and Hom 3-Lie-Rinehart algebras.

Everything is computed over Q.  The package provides:

* exactq     -- rational linear algebra (matrices, subspaces, spectra)
* symfun     -- monic monomial keys and the closed-form Jacobian 3-bracket
* core3lie   -- structure constants, (Hom) 3-Lie axioms
* repmod     -- pair actions and (Hom) representation axioms
* rinehart   -- bundles, anchor laws, derivation checks, identity suite,
                centers
* construct  -- twist and tensor-extension constructions
* split      -- root/weight decompositions, connections, class ideals
* corpus     -- built-in example bundles
* bundleio   -- canonical JSON serialization
* cli        -- the ``trilie`` command line tool
"""

__version__ = "0.1.0"
