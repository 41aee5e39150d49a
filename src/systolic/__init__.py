"""Combinatorial machinery of simplicially nonpositively curved complexes.

Flag complexes, the combinatorial metric (projections, directed geodesics),
layers, exact flat-plane geometry, characteristic discs and surfaces,
Euclidean geodesics, good geodesics, and a finite-radius boundary atlas,
plus seeded verification suites for the quantitative theorems.
"""

from types import ModuleType as _Module

from .boundary import (BoundaryAtlas, GoodGeodesic, boundary_atlas,
                       corollary_contr_check, default_D, in_standard_neighborhood,
                       is_good_geodesic, make_good_geodesic,
                       rays_equivalent_truncated, ATLAS_CAP, C_DEFAULT, D_DEFAULT)
from .complex import (FlagComplex, dump_complex, dumps_complex, is_k_large,
                      is_locally_6_large, load_complex, loads_complex,
                      simply_connected_heuristic, INFINITY)
from .charsurf import (CharDisc, build_char_disc, build_char_surface,
                       characteristic_image)
from .eucgeo import (EuclideanGeodesic, cat0_closeness_check, cat0_diagonal,
                     euclidean_diagonal, euclidean_geodesic, modified_disc,
                     subsegment_check, thread_vertex_path,
                     verify_euc_properties)
from .flatgeom import (PolyPath, TriangulatedDisc, as_disc, defect,
                       gauss_bonnet_sum, is_flat, polygon_geodesic)
from .generators import (flat_parallelogram, flat_rectangle,
                         gen_disc_with_degrees, gen_flat_region)
from .lattice import RowStack
from .layers import (LayerDecomposition, ThicknessProfile, layers,
                     thickness_profile, verify_layer_lemmas,
                     verify_profile_lemmas)
from .metric import (all_geodesics, ball, dist, directed_geodesic, is_convex,
                     projection, projection_witness, residue, sphere, spans_simplex)

# the public names, without the submodules the imports above bind, so that
# a star import does not rebind `complex` to the module
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _Module)]
