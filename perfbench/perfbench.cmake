# Build file of the pipeline benchmark.  It adds one executable to the
# repository's own CMake project, so the benchmark links the same library
# targets, flags and query directory as netqre-monitor.  run.py passes it to
# the root project as CMAKE_PROJECT_INCLUDE:
#
#   cmake -S . -B BUILD -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build BUILD --target perfbench
add_executable(perfbench EXCLUDE_FROM_ALL ${CMAKE_CURRENT_LIST_DIR}/main.cpp)
target_compile_features(perfbench PRIVATE cxx_std_20)
# main.cpp replaces the global operator new/delete pair with malloc/free to
# count allocations; GCC flags the free() in the replacement delete.
target_compile_options(perfbench PRIVATE -Wall -Wextra -Wno-mismatched-new-delete)
target_link_libraries(perfbench PRIVATE netqre_apps netqre_health
  netqre_trafficgen)
