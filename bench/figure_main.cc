// The main() of every figure/table executable; CMake names the entry
// point (TERP_FIGURE=run_fig09, ...).
#include "harness.hh"

int main(int argc, char **argv) { return terp::bench::TERP_FIGURE(argc, argv); }
