# Benchmark targets, included from the top-level CMakeLists (not
# add_subdirectory) so that build/bench/ contains exactly the bench binaries
# and `for b in build/bench/*; do $b; done` runs them all cleanly.

function(emu_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE emu)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

emu_add_bench(table3_switch_comparison)
emu_add_bench(table4_service_comparison)
emu_add_bench(table5_debug_overhead)
emu_add_bench(ablation_memcached_cores)
emu_add_bench(ablation_memory_backend)
emu_add_bench(ablation_cam_variants)
emu_add_bench(ablation_bus_width)
emu_add_bench(ablation_pipeline_depth)
emu_add_bench(ablation_l1_cache)
emu_add_bench(microbench_kernel)
target_link_libraries(microbench_kernel PRIVATE benchmark::benchmark)
emu_add_bench(microbench_parallel)
emu_add_bench(microbench_gossip)
emu_add_bench(microbench_chain)
# Same scenario code as gossip_soak / chain_soak and the kernel oracle tests
# (src/soak/workloads.h).
target_link_libraries(microbench_kernel PRIVATE emu_soak)
target_link_libraries(microbench_gossip PRIVATE emu_soak)
target_link_libraries(microbench_chain PRIVATE emu_soak)
