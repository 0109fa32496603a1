fn main() {
    lib::used_by_perfbench();
}
