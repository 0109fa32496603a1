fn main() {
    println!("{}", lib::USED_BY_EXAMPLE);
}
