# Build file of the benchmark runner. It is not a project of its own: run.py
# configures the repository's top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so the program under test (libraries and vgod_serve) is compiled with the
# repository's own flags, untouched, and this file only adds the runner
# target next to them. Target names resolve at generate time, so linking
# libraries that are declared later in the tree is fine.
add_executable(perfbench_runner
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/util.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/checks.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/loadgen.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/detect.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/serve.cc
  ${CMAKE_CURRENT_LIST_DIR}/src/layers.cc
)
set_target_properties(perfbench_runner PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF)
target_compile_options(perfbench_runner PRIVATE -Wall -Wextra)
target_link_libraries(perfbench_runner PRIVATE
  vgod_serve vgod_stream vgod_detectors vgod_injection vgod_datasets
  vgod_gnn vgod_graph vgod_eval vgod_tensor vgod_obs vgod_core)
